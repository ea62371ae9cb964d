(** Cluster compositions used by the experiments.

    A cluster is an array of node profiles. Builders: mixed-generation
    clusters (the paper's economic-heterogeneity scenario: "economical
    reasons may impose the coexistence of machines from different
    generations") and randomly scaled ones. *)

type t = { nodes : Profile.t array }

val generations : counts:(int * float) list -> t
(** [generations ~counts] builds a cluster from [(count, scale)] pairs: each
    pair contributes [count] nodes that are [scale]× the reference profile
    (e.g. [\[ (8, 1.0); (4, 2.0); (2, 4.0) \]] — old, mid, new).
    @raise Invalid_argument if empty or any count is non-positive. *)

val random :
  rng:Dht_prng.Rng.t -> n:int -> min_scale:float -> max_scale:float -> t
(** [n] nodes with scales drawn uniformly in [\[min_scale, max_scale\]].
    Needed by test_cluster (random heterogeneous clusters). *)

val size : t -> int

val scores : t -> float array
