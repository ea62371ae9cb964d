(** The hash range [R_h = \[0, 2^Bh)] of the model (§2.2).

    [Bh] is the fixed number of bits of a hash index. The default used by the
    experiments is 52 bits so that every partition size is an exact OCaml
    integer and every quota [size / 2^Bh] is an exact float. *)

type t
(** A hash space; immutable. *)

val create : bits:int -> t
(** [create ~bits] is the space [\[0, 2^bits)].
    @raise Invalid_argument unless [1 <= bits <= 62]. *)

val default : t
(** The 52-bit space used throughout the experiments. *)

val bits : t -> int
(** The exponent [Bh]. *)

val size : t -> int
(** [2^Bh], the number of hash indices. *)

val contains : t -> int -> bool
(** [contains t i] is [0 <= i < size t]. *)

val max_level : t -> int
(** Deepest split level a partition can reach, i.e. [bits t]. *)

val quota : t -> int -> float
(** [quota t width] is [width / 2^Bh] — the fraction of the space a range of
    [width] indices represents. Exact when [bits t <= 52]. *)
