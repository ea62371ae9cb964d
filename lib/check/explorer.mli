(** Deterministic schedule explorer.

    Sweeps seeds and perturbs message schedules at recorded decision sites
    (bounded reordering via delivery delays, targeted message sinking,
    crash/restart injection, linger flushes), searching for runs whose
    verifier reports failures. A failing schedule is greedily shrunk to a
    1-minimal replayable repro ({!Schedule.t}).

    Everything is deterministic: the probe consumes no system randomness,
    tweak sets are drawn from an {!Dht_prng.Rng} stream derived from the
    (scenario, seed) pair, and replaying a returned schedule through
    {!run} reproduces its failure exactly. *)

module Runtime := Dht_snode.Runtime

type scenario = {
  name : string;  (** recorded in schedules; part of the exploration seed *)
  build : seed:int -> Runtime.t;
      (** must be a pure function of [seed] (fresh engine, no ambient
          state) for replay to be exact *)
  drive : Runtime.t -> unit;  (** issue the workload (may call [run]) *)
  verify : Runtime.t -> string list;
      (** violation messages at quiescence; empty = pass *)
}

type outcome = {
  schedule : Schedule.t;  (** the (possibly shrunk) schedule that ran *)
  failures : string list;  (** verifier output; empty = the run passed *)
  sites : int;  (** decision sites the run exposed *)
  snodes : int;
}

val run : scenario -> Schedule.t -> outcome
(** Execute one schedule: build at its seed, apply its tweaks at their
    decision sites, drive to quiescence, verify. A run still busy at 60 s
    of virtual time (across every [Runtime.run] its [drive] makes; ~19x
    the longest passing run of the standard sweeps) is a liveness
    failure: its message names the scenario, the seed and the tweak
    count, and the verifier is skipped. *)

val shrink : scenario -> Schedule.t -> Schedule.t
(** Greedily remove tweaks while the failure persists; the result is
    1-minimal (every remaining tweak is necessary). A schedule that does
    not fail is returned unchanged. {!explore} shrinks every failure it
    finds this way.
    Needed by test_explorer, which shrinks a padded repro. *)

type kind = [ `Delay | `Drop | `Crash | `Flush ]

val explore :
  ?rounds:int ->
  ?max_tweaks:int ->
  ?kinds:kind list ->
  ?on_progress:(outcome -> unit) ->
  scenario ->
  seeds:int list ->
  outcome option
(** [explore sc ~seeds] sweeps the seeds in order; per seed it first runs
    the unperturbed baseline (a baseline failure is returned immediately,
    with an empty tweak list), then tries [rounds] (default 20) random
    tweak sets of at most [max_tweaks] (default 4) perturbations drawn
    from [kinds] (default all four). A delay stretches delivery by up to
    5 ms; an injected crash lasts 50 ms. The first failure found is
    shrunk and returned; [None] means every run passed. *)
