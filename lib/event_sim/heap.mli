(** Internal binary min-heap keyed by [(time, sequence)].

    The sequence number makes the pop order deterministic (FIFO among
    equal-time events), which the engine relies on for reproducibility.

    Layout: struct of arrays. Times sit unboxed in a [Float.Array],
    sequence numbers and payload-slot ids in [int array]s, and a sift moves
    only those, so pushing and popping allocate nothing (outside growth)
    and never hit the write barrier. Each payload is written once into a
    slot of a pool when pushed and stays there until popped or cleared.
    The arrays double when full and never shrink. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** [dummy] fills free payload slots, so a popped payload becomes
    unreachable as soon as it leaves the heap. Pass any cheap inert value
    ([ignore] for thunks); it is the only payload the heap may keep alive
    while empty. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> time:float -> seq:int -> 'a -> int
(** Queue a payload and return the pool slot it was written to, for
    {!clear}. *)

val clear : 'a t -> int -> 'a -> unit
(** [clear t slot payload] puts the dummy in [slot] when the slot still
    holds [payload] (physical equality), so a queued entry stops keeping
    its payload alive; the entry itself stays queued and pops the dummy.
    Once the entry has popped, its slot may hold another payload, which
    the check leaves alone, so a caller need not know whether it has. *)

val min_time : 'a t -> float
(** The time of the entry with the smallest [(time, seq)].
    @raise Invalid_argument if the heap is empty. *)

val pop_min : 'a t -> 'a
(** Removes the entry with the smallest [(time, seq)] and returns its
    payload; read {!min_time} first for its time. The vacated payload slot
    is reset to the dummy: a popped payload is never pinned by the pool.
    @raise Invalid_argument if the heap is empty. *)
