(** Replayable perturbation schedules.

    A schedule names a scenario, a seed, and a list of perturbations
    anchored at {e decision sites} — the deterministic numbering of remote
    sends exposed by {!Dht_event_sim.Network.set_probe}. Replaying the
    same schedule against the same scenario build reproduces the same run
    exactly.

    The text format is line-based:
    {v
    # dht-schedule v1
    scenario kv-chaos
    seed 42
    delay <site> <seconds>     perturbation: stretch that send's delivery
    drop <site>                perturbation: sink that send entirely
    crash <site> <snode> <down>  crash [snode] at that send, restart after [down]s
    flush <site>               force all lingering batches out at that send
    v} *)

type perturbation =
  | Delay of { site : int; by : float }
  | Drop of { site : int }
  | Crash of { site : int; snode : int; down : float }
  | Flush of { site : int }

type t = { seed : int; scenario : string; tweaks : perturbation list }

val site : perturbation -> int

val length : t -> int
(** Number of perturbations. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val save : path:string -> t -> unit

val load : path:string -> (t, string) result
