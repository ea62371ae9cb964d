(** Coarse-grain enrollment policy (§2.1.2).

    The number of vnodes each cluster node contributes to a DHT translates
    its enrollment level: it should be proportional to the node's share of
    the cluster's total {!Profile.score}. Apportionment uses the
    largest-remainder method so the counts sum exactly to the requested
    total, with every node getting at least [min_vnodes]. *)

val apportion :
  ?min_vnodes:int -> total:int -> float array -> int array
(** [apportion ~total scores] distributes [total] vnodes proportionally to
    [scores]. [min_vnodes] (default 1) is the floor per node.
    @raise Invalid_argument if [total < min_vnodes * n], any score is not
    strictly positive, or the array is empty. *)

val vnodes_of_profiles : total:int -> Profile.t array -> int array
(** {!apportion} over {!Profile.score}s, with the default floor. *)

val ideal_shares : float array -> float array
(** Normalized scores: the quota each node {e should} hold. *)
