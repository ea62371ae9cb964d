(** Gray-failure health scoring from reliable-link telemetry.

    A {e gray-failed} peer is alive enough to acknowledge eventually but
    slow enough to hurt every op that touches it — invisible to crash
    detectors and diluted away in aggregate latency quantiles. The scorer
    folds each observer's per-peer link estimator state (adaptive-RTO
    srtt/rttvar, retry-budget strikes, route-poisoning suspicion, queue
    depths) into one badness number per peer, normalized by the cluster
    median so scores read as "times worse than a typical peer". *)

type sample = {
  observer : int;  (** snode doing the measuring *)
  peer : int;  (** snode being measured *)
  srtt : float;  (** smoothed RTT estimate, seconds ([0] if none yet) *)
  rttvar : float;  (** RTT mean deviation, seconds *)
  strikes : int;  (** consecutive exhausted retry budgets *)
  suspect : bool;  (** route-poisoned by the observer *)
  outbox : int;  (** unacked frames outstanding toward the peer *)
  backlog : int;  (** frames parked behind the inflight window *)
}

val scores : sample list -> (int * float) list
(** Per-peer health scores, worst first (ties broken by peer id). A score
    of [1.] is the cluster median; a gray-failed peer scores far above it.
    Peers appear iff some observer sampled them. *)
