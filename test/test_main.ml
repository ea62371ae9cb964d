(* Aggregates every suite into one alcotest binary (`dune runtest`). *)

let () =
  Alcotest.run "balanced_dht"
    [
      ("prng", Test_prng.suite);
      ("stats", Test_stats.suite);
      ("hashspace", Test_hashspace.suite);
      ("hashes", Test_hashes.suite);
      ("ids", Test_ids.suite);
      ("balancer", Test_balancer.suite);
      ("global-dht", Test_global.suite);
      ("local-dht", Test_local.suite);
      ("metrics", Test_metrics.suite);
      ("consistent-hashing", Test_ch.suite);
      ("cluster", Test_cluster.suite);
      ("event-sim", Test_event_sim.suite);
      ("protocol", Test_protocol.suite);
      ("removal", Test_removal.suite);
      ("workload", Test_workload.suite);
      ("experiments", Test_experiments.suite);
      ("report", Test_report.suite);
      ("wire", Test_wire.suite);
      ("replication", Test_replication.suite);
      ("batching", Test_batching.suite);
      ("transport", Test_transport.suite);
      ("snode-runtime", Test_runtime.suite);
      ("registry", Test_registry.suite);
      ("telemetry", Test_telemetry.suite);
      ("obsv", Test_obsv.suite);
      ("check", Test_check.suite);
      ("active-balance", Test_balance.suite);
      ("linear", Test_linear.suite);
      ("history", Test_history.suite);
      ("routing", Test_routing.suite);
      ("explorer", Test_explorer.suite);
      ("merkle", Test_merkle.suite);
      ("hot-path", Test_alloc.suite);
    ]
