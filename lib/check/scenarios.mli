(** Standard explorable scenarios, shared by the test suite and the
    [dht_sim explore] subcommand so a schedule artifact recorded by one is
    replayable by the other. *)

val kv :
  ?name:string ->
  ?protect:bool ->
  ?snodes:int ->
  ?vnodes:int ->
  ?grow:int ->
  ?removes:int ->
  ?keys:int ->
  ?rfactor:int ->
  ?read_quorum:int ->
  ?write_quorum:int ->
  ?linger:float ->
  unit ->
  Explorer.scenario
(** Grow by [vnodes] (Pmin = 8, Vmin = 2), write [keys] keys, grow by
    [grow] more (migrating live data) and remove [removes] vnodes, then
    overwrite and read every key; verify runs the full invariant battery
    plus the linearizability, session and durability checks over the
    recorded history.

    [protect] (default [true]) arms the reliable layer with an empty fault
    plan, so injected perturbations must be tolerated — any failure is a
    real bug. [protect:false] is mutation mode: the runtime trusts the
    network, a sunk message is silent loss, and the explorer is expected
    to {e find} the planted damage. *)

val mt_ae :
  ?name:string ->
  ?protect:bool ->
  ?snodes:int ->
  ?keys:int ->
  ?rfactor:int ->
  ?read_quorum:int ->
  ?write_quorum:int ->
  ?linger:float ->
  unit ->
  Explorer.scenario
(** Merkle anti-entropy reconciliation under perturbation: the cluster
    forces the tree protocol everywhere ([mt_threshold = 0], leaf cap 2)
    and grows by 2 vnodes (Pmin = 8, Vmin = 2), 6 keys are planted
    divergent on both sides of the symmetric difference, and two
    reconciliation rounds run with their [Mt_*] frames exposed to the
    explorer's defer/sink/crash perturbations, followed by an
    overwrite/read workload. Verify demands the invariant
    battery, hash-tree consistency ({!Invariants.check_merkle}) and the
    full linearizability suite stay clean. *)

val by_name : ?linger:float -> string -> Explorer.scenario option
(** The named standard scenario: ["kv"], ["kv-mutate"], ["mt-ae"], or
    ["mt-ae-mutate"]. *)
