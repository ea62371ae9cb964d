(** Cluster node profiles (§1, §2.1.2).

    Heterogeneity in a cluster comes from "the coexistence of machines from
    different generations" and from specialized nodes; a node's enrollment
    level in a DHT "primarily depends on the amount of local resources bound
    to the DHT" and on "the relative performance between the cluster nodes".
    A profile captures those resources; {!score} is the scalar the
    enrollment policy divides proportionally. *)

type t = {
  name : string;
  cpu : float;  (** relative CPU performance (1.0 = reference node) *)
  memory_gb : float;
  storage_gb : float;  (** storage bound to the DHT *)
}

val make :
  ?name:string -> cpu:float -> memory_gb:float -> storage_gb:float -> unit -> t
(** @raise Invalid_argument if any resource is not strictly positive. *)

val reference : t
(** The reference machine: cpu 1.0, 4 GB memory, 100 GB storage. *)

val scale : t -> float -> t
(** [scale p f] multiplies every resource by [f] (a newer generation). *)

val score : t -> float
(** Scalar enrollment score: geometric mean of the resources normalized to
    {!reference}. Strictly positive. *)
