(** Push-pull gossip view of per-snode load summaries (after Scalaris's
    [gossip.erl], reduced to what load balancing needs): each observer
    keeps the freshest {!Summary.t} it has seen per origin, merges are
    version-fenced (an entry never regresses to an older stamp), and the
    runtime drives bounded rounds off the sim clock so convergence is
    checkable against the round count.

    The view is {e soft state}: it is reset when its snode crashes. The
    per-origin version counters live in the runtime and are durable, so a
    restarted snode's first summary still supersedes everything it
    gossiped before the crash. *)

type t

val create : unit -> t

val note : t -> Summary.t -> bool
(** Install the summary if it is fresher than (or the first for) its
    origin. [false] — and no change — when the view already holds an
    entry with an equal or higher version. *)

val merge : t -> Summary.t list -> int
(** [note] each summary; returns how many actually installed. *)

val find : t -> int -> Summary.t option

val entries : t -> Summary.t list
(** Every entry, sorted by origin — the push-pull payload. *)

val reset : t -> unit
(** Forget everything (crash semantics). *)

val staleness : t -> origins:int list -> version_of:(int -> int) -> int * int
(** [(missing, lag)] against ground truth: how many of [origins] the view
    has never heard of, and the largest version gap
    [version_of o - (view entry).version] over the rest. A converged view
    has [missing = 0] and [lag] at most one gossip round.
    Needed by test_balance (the gossip staleness oracle). *)
