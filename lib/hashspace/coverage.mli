(** Auditing invariant G1/G1': the hash range is fully divided into
    non-overlapping partitions.

    These checks are used by the test suite and by the DHT's [audit]
    functions; they are O(n log n) and not on any hot path. *)

type error =
  | Empty  (** no spans at all *)
  | Gap of { after : int; before : int }
      (** uncovered indices in [\[after, before)] *)
  | Overlap of { a : Span.t; b : Span.t }
  | Out_of_space of Span.t  (** span deeper than the space allows *)

val pp_error : Format.formatter -> error -> unit

val check : Space.t -> Span.t list -> (unit, error) result
(** [check sp spans] is [Ok ()] iff [spans] tile the whole of [R_h] exactly:
    no overlap, no gap, full coverage. *)
