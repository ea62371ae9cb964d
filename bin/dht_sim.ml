(* Experiment driver: regenerates every figure of the paper and the
   extension experiments. `dht_sim --help` lists the commands. *)

open Cmdliner
module Figures = Dht_experiments.Figures
module Extensions = Dht_experiments.Extensions
module Curve = Dht_experiments.Curve
module Chart = Dht_report.Ascii_chart
module Table = Dht_report.Table
module Csv = Dht_report.Csv
module Registry = Dht_telemetry.Registry
module Trace = Dht_telemetry.Trace

(* ------------------------------------------------------------------ *)
(* Common options                                                      *)

let seed_arg =
  let doc = "Master random seed (results are reproducible per seed)." in
  Arg.(value & opt int 2004 & info [ "seed" ] ~docv:"SEED" ~doc)

(* Flag values are range-checked as they parse, so an out-of-range value
   is a usage error (exit 124) rather than an exception deep in a run. *)
let checked what parse valid pp =
  let parse s =
    match parse s with
    | Some x when valid x -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" what s))
  in
  Arg.conv (parse, pp)

let positive_int =
  checked "a positive integer" int_of_string_opt (fun n -> n > 0)
    Format.pp_print_int

let at_least n =
  checked (Printf.sprintf "an integer >= %d" n) int_of_string_opt
    (fun x -> x >= n)
    Format.pp_print_int

let positive_float =
  checked "a positive number" float_of_string_opt
    (fun x -> x > 0. && Float.is_finite x)
    Format.pp_print_float

let non_negative_float =
  checked "a finite number >= 0" float_of_string_opt
    (fun x -> x >= 0. && Float.is_finite x)
    Format.pp_print_float

let probability =
  checked "a probability in [0, 1]" float_of_string_opt
    (fun p -> p >= 0. && p <= 1.)
    Format.pp_print_float

let runs_arg default =
  let doc = "Number of independent runs to average." in
  Arg.(value & opt positive_int default & info [ "runs" ] ~docv:"N" ~doc)

let vnodes_arg default =
  let doc = "Number of vnodes (or nodes) to create." in
  Arg.(value & opt positive_int default & info [ "vnodes" ] ~docv:"V" ~doc)

let snodes_arg default =
  let doc = "Number of snodes in the simulated cluster." in
  Arg.(value & opt positive_int default & info [ "snodes" ] ~docv:"S" ~doc)

(* --rfactor, --read-quorum and --write-quorum are cross-checked as one
   term with the command's [snodes] term: R and W in [1, rfactor] with
   R + W > rfactor, and rfactor <= snodes, or a usage error. *)
let replication_term ~snodes ~rfactor ~read ~write =
  let rfactor =
    let doc = "Replicas per partition (1 disables replication)." in
    Arg.(value & opt positive_int rfactor & info [ "rfactor" ] ~docv:"N" ~doc)
  in
  let read =
    let doc = "Replica replies required before a get is answered." in
    Arg.(value & opt int read & info [ "read-quorum" ] ~docv:"R" ~doc)
  in
  let write =
    let doc = "Replica acks required before a put is acknowledged." in
    Arg.(value & opt int write & info [ "write-quorum" ] ~docv:"W" ~doc)
  in
  let check snodes rfactor read_quorum write_quorum =
    match Dht_core.Params.check_quorum ~rfactor ~read_quorum ~write_quorum with
    | () when rfactor > snodes ->
        `Error
          (true, Printf.sprintf "--rfactor %d exceeds --snodes %d" rfactor snodes)
    | () -> `Ok (rfactor, read_quorum, write_quorum)
    | exception Invalid_argument msg -> `Error (true, msg)
  in
  Term.(ret (const check $ snodes $ rfactor $ read $ write))

(* One network-latency quantum on the default gigabit link: traffic to one
   destination that owes an ack coalesces for at most one hop worth of
   latency. *)
let default_linger = Dht_event_sim.Network.gigabit.Dht_event_sim.Network.base_latency

let linger_arg =
  let doc =
    "Transmission-batching window (virtual seconds): messages toward one \
     destination coalesce into a single envelope for at most this long. \
     Under a fault plan the window applies only while the destination \
     owes an ack; toward one that owes nothing, what an event stages \
     leaves as soon as the event ends. 0 disables batching and reproduces \
     the pre-batching message flow byte-for-byte. Default: one \
     network-latency quantum (50 µs)."
  in
  Arg.(value & opt non_negative_float default_linger
       & info [ "linger" ] ~docv:"S" ~doc)

let csv_arg =
  let doc = "Also write the series to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let no_chart_arg =
  let doc = "Suppress the ASCII chart (print only the summary table)." in
  Arg.(value & flag & info [ "no-chart" ] ~doc)

(* ------------------------------------------------------------------ *)
(* Telemetry options (available on every subcommand)                   *)

(* A per-invocation metrics registry and trace sink, built from --metrics,
   --metrics-csv and --trace. Commands that drive an engine feed both;
   the rest still accept the flags and report an empty registry, so the
   interface is uniform across subcommands. *)
type telemetry = {
  tel_reg : Registry.t;
  tel_trace : Trace.t;
  tel_show : bool;
  tel_csv : string option;
  tel_trace_path : string option;
  tel_causal : bool;
}

let make_telemetry show csv trace_path trace_limit causal =
  let tel_trace =
    match trace_path with
    | None -> Trace.noop
    | Some path ->
        Trace.to_channel ?limit:trace_limit (Trace.format_of_path path)
          (open_out path)
  in
  {
    tel_reg = Registry.create ();
    tel_trace;
    tel_show = show || csv <> None;
    tel_csv = csv;
    tel_trace_path = trace_path;
    tel_causal = causal;
  }

(* Print/write/close whatever telemetry the command produced. Runs before
   any failure [exit] so trace files are always valid JSON. *)
let finish_telemetry tel =
  Trace.close tel.tel_trace;
  if tel.tel_trace_path <> None then
    Registry.inc
      (Registry.counter tel.tel_reg "trace_dropped_total")
      (Trace.dropped tel.tel_trace);
  Option.iter
    (fun path ->
      Printf.printf "wrote %s (%d trace events%s)\n" path
        (Trace.events tel.tel_trace)
        (match Trace.dropped tel.tel_trace with
        | 0 -> ""
        | n -> Printf.sprintf ", %d dropped by --trace-limit" n))
    tel.tel_trace_path;
  if tel.tel_show then begin
    print_endline "== telemetry ==";
    if Registry.is_empty tel.tel_reg then
      print_endline "(this command registered no instruments)"
    else Table.print (Registry.to_table tel.tel_reg)
  end;
  Option.iter
    (fun path ->
      Csv.write ~path ~header:Registry.csv_header (Registry.csv_rows tel.tel_reg);
      Printf.printf "wrote %s\n" path)
    tel.tel_csv

let telemetry_term =
  let show =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Print the telemetry metrics table after the run.")
  in
  let csv =
    Arg.(value & opt (some string) None
         & info [ "metrics-csv" ] ~docv:"FILE"
             ~doc:"Write the telemetry metrics to $(docv) as CSV.")
  in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:
               "Record a protocol trace to $(docv): JSON-lines when the \
                name ends in .jsonl, Chrome trace-event format (open at \
                ui.perfetto.dev) otherwise. Timestamps are virtual, so the \
                trace is byte-identical across runs with the same seed.")
  in
  let trace_limit =
    Arg.(value & opt (some positive_int) None
         & info [ "trace-limit" ] ~docv:"N"
             ~doc:
               "Cap the trace sink at $(docv) events (at least 1; the sink \
                is unbounded without this option); the excess is counted \
                by the trace_dropped_total metric instead of written, \
                bounding sink memory and file size.")
  in
  let causal =
    Arg.(value & flag
         & info [ "causal" ]
             ~doc:
               "With --trace, propagate span contexts inside wire frames \
                and emit parent-linked causal events (op.begin/end, \
                msg.send/xmit/recv) for $(b,dht_sim trace analyze). \
                Honoured by the commands that drive the snode runtime (kv, \
                chaos). Frames grow by the 20-byte context, so byte counts \
                shift relative to an untraced run.")
  in
  Term.(const make_telemetry $ show $ csv $ trace $ trace_limit $ causal)

(* ------------------------------------------------------------------ *)
(* Rendering helpers                                                   *)

let to_chart_series (c : Curve.t) =
  Chart.series ~label:c.Curve.label ~xs:c.Curve.xs ~ys:c.Curve.ys

let summary_table ~x_name ~y_name curves =
  let checkpoints =
    match curves with
    | [] -> []
    | c :: _ ->
        let n = Array.length c.Curve.xs in
        List.sort_uniq compare [ n / 8; n / 4; n / 2; (3 * n) / 4; n - 1 ]
        |> List.filter (fun i -> i >= 0 && i < n)
  in
  let headers =
    x_name
    :: List.map (fun (c : Curve.t) -> c.Curve.label ^ " " ^ y_name) curves
  in
  let table = Table.create ~headers in
  List.iter
    (fun i ->
      let row =
        Printf.sprintf "%.0f" (List.hd curves).Curve.xs.(i)
        :: List.map
             (fun (c : Curve.t) -> Printf.sprintf "%.3f" c.Curve.ys.(i))
             curves
      in
      Table.add_row table row)
    checkpoints;
  table

let emit ?(y_label = "sigma(Qv) %") ?(x_label = "overall number of vnodes")
    ~title ~csv ~no_chart curves =
  Printf.printf "== %s ==\n" title;
  if not no_chart then
    Chart.print ~x_label ~y_label (List.map to_chart_series curves);
  Table.print (summary_table ~x_name:"V" ~y_name:"" curves);
  Option.iter
    (fun path ->
      let header =
        "x" :: List.map (fun (c : Curve.t) -> c.Curve.label) curves
      in
      Csv.write_columns ~path ~header
        ((List.hd curves).Curve.xs :: List.map (fun c -> c.Curve.ys) curves);
      Printf.printf "wrote %s\n" path)
    csv

(* ------------------------------------------------------------------ *)
(* Figure commands                                                     *)

let fig4_cmd =
  let run tel runs vnodes seed csv no_chart =
    let curves = Figures.fig4 ~runs ~vnodes ~seed () in
    emit ~title:"Figure 4: sigma(Qv) when Pmin = Vmin" ~csv ~no_chart curves;
    finish_telemetry tel
  in
  let term =
    Term.(const run $ telemetry_term $ runs_arg 100 $ vnodes_arg 1024
          $ seed_arg $ csv_arg $ no_chart_arg)
  in
  Cmd.v
    (Cmd.info "fig4"
       ~doc:"Quality of the balancement for Pmin = Vmin in {8..128} (figure 4).")
    term

let fig5_cmd =
  let run tel runs vnodes seed alpha =
    let thetas = Figures.fig5 ~runs ~vnodes ~alpha ~seed () in
    Printf.printf "== Figure 5: theta(Vmin), alpha = beta = %.2f ==\n" alpha;
    let table = Table.create ~headers:[ "Vmin"; "theta" ] in
    List.iter
      (fun (v, t) -> Table.add_row table [ string_of_int v; Printf.sprintf "%.4f" t ])
      thetas;
    Table.print table;
    Printf.printf "theta minimizes at Vmin = %d (paper: 32)\n"
      (Figures.argmin_theta thetas);
    finish_telemetry tel
  in
  let alpha =
    Arg.(value & opt probability 0.5 & info [ "alpha" ] ~docv:"A"
           ~doc:"Weight of the Vmin term (beta = 1 - alpha).")
  in
  let term =
    Term.(const run $ telemetry_term $ runs_arg 100 $ vnodes_arg 1024
          $ seed_arg $ alpha)
  in
  Cmd.v (Cmd.info "fig5" ~doc:"Parameter-choice functional theta (figure 5).") term

let fig6_cmd =
  let run tel runs vnodes seed csv no_chart =
    let curves = Figures.fig6 ~runs ~vnodes ~seed () in
    emit ~title:"Figure 6: sigma(Qv) when Pmin = 32, Vmin in {8..512}" ~csv
      ~no_chart curves;
    finish_telemetry tel
  in
  let term =
    Term.(const run $ telemetry_term $ runs_arg 100 $ vnodes_arg 1024
          $ seed_arg $ csv_arg $ no_chart_arg)
  in
  Cmd.v
    (Cmd.info "fig6" ~doc:"Degradation of the balancement quality (figure 6).")
    term

let fig78 ~which tel runs vnodes seed csv no_chart =
  let d = Figures.fig7_fig8 ~runs ~vnodes ~seed () in
  (match which with
  | `Fig7 ->
      emit ~title:"Figure 7: evolution of the number of groups"
        ~y_label:"overall number of groups" ~csv ~no_chart
        [ d.Figures.greal; d.Figures.gideal ]
  | `Fig8 ->
      emit ~title:"Figure 8: evolution of sigma(Qg)" ~y_label:"sigma(Qg) %" ~csv
        ~no_chart [ d.Figures.sigma_qg ]);
  finish_telemetry tel

let fig7_cmd =
  let term =
    Term.(const (fig78 ~which:`Fig7) $ telemetry_term $ runs_arg 100
          $ vnodes_arg 1024 $ seed_arg $ csv_arg $ no_chart_arg)
  in
  Cmd.v (Cmd.info "fig7" ~doc:"Greal vs Gideal, Pmin = Vmin = 32 (figure 7).") term

let fig8_cmd =
  let term =
    Term.(const (fig78 ~which:`Fig8) $ telemetry_term $ runs_arg 100
          $ vnodes_arg 1024 $ seed_arg $ csv_arg $ no_chart_arg)
  in
  Cmd.v
    (Cmd.info "fig8" ~doc:"Balancement between groups sigma(Qg) (figure 8).")
    term

let fig9_cmd =
  let run tel runs vnodes seed csv no_chart =
    let curves = Figures.fig9 ~runs ~nodes:vnodes ~seed () in
    emit ~title:"Figure 9: local approach vs Consistent Hashing"
      ~y_label:"sigma(Qn) %" ~x_label:"overall number of cluster nodes" ~csv
      ~no_chart curves;
    finish_telemetry tel
  in
  let term =
    Term.(const run $ telemetry_term $ runs_arg 100 $ vnodes_arg 1024
          $ seed_arg $ csv_arg $ no_chart_arg)
  in
  Cmd.v (Cmd.info "fig9" ~doc:"Comparison with Consistent Hashing (figure 9).") term

(* ------------------------------------------------------------------ *)
(* Claim checks                                                        *)

let zones_cmd =
  let run tel runs seed =
    let local, global = Figures.zone1 ~runs ~seed () in
    Printf.printf
      "== 1st zone (V <= Vmax): local approach vs global approach ==\n";
    let table = Table.create ~headers:[ "V"; "local"; "global"; "diff" ] in
    let n = Array.length local.Curve.ys in
    List.iter
      (fun i ->
        if i < n then
          Table.add_row table
            [
              string_of_int (i + 1);
              Printf.sprintf "%.4f" local.Curve.ys.(i);
              Printf.sprintf "%.4f" global.Curve.ys.(i);
              Printf.sprintf "%.4f" (local.Curve.ys.(i) -. global.Curve.ys.(i));
            ])
      [ 0; 7; 15; 31; 47; 63 ];
    Table.print table;
    let max_diff = ref 0. in
    Array.iteri
      (fun i y ->
        max_diff := Float.max !max_diff (abs_float (y -. global.Curve.ys.(i))))
      local.Curve.ys;
    let ok = !max_diff <= 1e-12 in
    Printf.printf "max |local - global| over V = 1..%d: %g (%s, bound 1e-12)\n" n
      !max_diff (if ok then "ok" else "FAILED");
    finish_telemetry tel;
    if not ok then exit 1
  in
  let term = Term.(const run $ telemetry_term $ runs_arg 100 $ seed_arg) in
  Cmd.v
    (Cmd.info "zones"
       ~doc:
         "Check the zone-1 claim: local = global while V <= Vmax. Compares \
          every V and exits 1 if any |local - global| exceeds 1e-12.")
    term

let ratios_cmd =
  let run tel runs vnodes seed =
    let curves = Figures.fig4 ~runs ~vnodes ~seed () in
    Printf.printf
      "== Plateau ratios: doubling (Pmin,Vmin) should shave ~30%% ==\n";
    let table = Table.create ~headers:[ "config"; "final sigma %"; "ratio" ] in
    List.iter
      (fun (label, final, ratio) ->
        Table.add_row table
          [ label; Printf.sprintf "%.3f" final; Printf.sprintf "%.3f" ratio ])
      (Figures.plateau_ratios curves);
    Table.print table;
    finish_telemetry tel
  in
  let term =
    Term.(const run $ telemetry_term $ runs_arg 100 $ vnodes_arg 1024 $ seed_arg)
  in
  Cmd.v (Cmd.info "ratios" ~doc:"Check the ~30% improvement-per-doubling claim.") term

let stability_cmd =
  let run tel runs vnodes seed csv no_chart =
    let curve, slope = Figures.stability ~runs ~vnodes ~seed () in
    emit ~title:"Stability out to 8192 vnodes (Pmin = Vmin = 32)" ~csv ~no_chart
      [ curve ];
    Printf.printf "second-half slope: %+.4f %% per 1000 vnodes (stable ~ 0)\n"
      slope;
    finish_telemetry tel
  in
  let term =
    Term.(const run $ telemetry_term $ runs_arg 10 $ vnodes_arg 8192 $ seed_arg
          $ csv_arg $ no_chart_arg)
  in
  Cmd.v (Cmd.info "stability" ~doc:"Check the 8192-vnode stability claim.") term

(* ------------------------------------------------------------------ *)
(* Extension experiments                                               *)

let cost_cmd =
  let run tel runs vnodes seed =
    let rows = Figures.cost ~runs ~vnodes ~seed () in
    Printf.printf
      "== Resource cost of Vmin (section 4.1.2, the other side of theta) ==\n";
    let table =
      Table.create
        ~headers:
          [ "Vmin"; "mean Vg"; "groups"; "LPDR bytes"; "sync snodes";
            "sigma(Qv) %" ]
    in
    List.iter
      (fun (r : Figures.cost_row) ->
        Table.add_row table
          [
            string_of_int r.Figures.vmin;
            Printf.sprintf "%.1f" r.Figures.mean_group_size;
            Printf.sprintf "%.1f" r.Figures.group_count;
            Printf.sprintf "%.0f" r.Figures.lpdr_bytes;
            Printf.sprintf "%.1f" r.Figures.sync_snodes;
            Printf.sprintf "%.3f" r.Figures.final_sigma;
          ])
      rows;
    Table.print table;
    finish_telemetry tel
  in
  let term =
    Term.(const run $ telemetry_term $ runs_arg 20 $ vnodes_arg 1024 $ seed_arg)
  in
  Cmd.v
    (Cmd.info "cost"
       ~doc:"Measure the storage/synchronization cost that grows with Vmin.")
    term

let parallel_cmd =
  let run tel vnodes rate snodes seed =
    let rows = Extensions.parallel ~snodes ~vnodes ~rate ~seed () in
    Printf.printf
      "== Creation protocol: %d creations, Poisson %.0f/s, %d snodes ==\n"
      vnodes rate snodes;
    let table =
      Table.create
        ~headers:
          [
            "approach"; "created"; "makespan s"; "mean lat ms"; "p95 lat ms";
            "msgs"; "MB"; "audit";
          ]
    in
    List.iter
      (fun (r : Extensions.parallel_row) ->
        Table.add_row table
          [
            r.label;
            Printf.sprintf "%d/%d" r.par_created vnodes;
            Printf.sprintf "%.3f" r.par_makespan;
            Printf.sprintf "%.2f" (1000. *. r.par_mean_latency);
            Printf.sprintf "%.2f" (1000. *. r.par_p95_latency);
            string_of_int r.par_messages;
            Printf.sprintf "%.1f" (float_of_int r.par_bytes /. 1e6);
            (if r.par_audit_ok then "ok" else "FAILED");
          ])
      rows;
    Table.print table;
    List.iter
      (fun (r : Extensions.parallel_row) ->
        List.iter
          (fun (tag, msgs, bytes) ->
            let labels = [ ("approach", r.label); ("tag", tag) ] in
            Registry.inc (Registry.counter tel.tel_reg ~labels "net.messages")
              msgs;
            Registry.inc (Registry.counter tel.tel_reg ~labels "net.bytes")
              bytes)
          r.par_per_tag)
      rows;
    finish_telemetry tel;
    if
      List.exists
        (fun (r : Extensions.parallel_row) ->
          r.par_created <> vnodes || not r.par_audit_ok)
        rows
    then exit 1
  in
  let rate =
    Arg.(value & opt positive_float 20_000. & info [ "rate" ] ~docv:"R"
           ~doc:"Poisson arrival rate of creation requests (per second).")
  in
  let term =
    Term.(const run $ telemetry_term $ vnodes_arg 512 $ rate $ snodes_arg 64
          $ seed_arg)
  in
  Cmd.v
    (Cmd.info "parallel"
       ~doc:
         "Quantify the serialization of the global approach on the snode \
          runtime (section 3 claim); exits 1 if a creation is incomplete or a \
          row fails its audit.")
    term

let hetero_cmd =
  let run tel total seed =
    let r = Extensions.hetero ~total_vnodes:total ~seed () in
    Printf.printf "== Heterogeneous enrollment: quota vs capacity share ==\n";
    let table =
      Table.create ~headers:[ "node"; "vnodes"; "ideal share"; "actual quota"; "rel err" ]
    in
    Array.iteri
      (fun i name ->
        Table.add_row table
          [
            Printf.sprintf "%d:%s" i name;
            string_of_int r.Extensions.vnode_counts.(i);
            Printf.sprintf "%.4f" r.Extensions.ideal_shares.(i);
            Printf.sprintf "%.4f" r.Extensions.actual_quotas.(i);
            Printf.sprintf "%.3f"
              (abs_float
                 (r.Extensions.actual_quotas.(i) -. r.Extensions.ideal_shares.(i))
              /. r.Extensions.ideal_shares.(i));
          ])
      r.Extensions.names;
    Table.print table;
    Printf.printf "max relative error %.3f, rms %.3f\n" r.Extensions.max_rel_err
      r.Extensions.rms_rel_err;
    finish_telemetry tel
  in
  let total =
    (* Every node of the 14-node (8 + 4 + 2) cluster enrolls at least one
       vnode. *)
    Arg.(value & opt (at_least 14) 128 & info [ "total-vnodes" ] ~docv:"V"
           ~doc:"Total vnodes apportioned across the cluster.")
  in
  let term = Term.(const run $ telemetry_term $ total $ seed_arg) in
  Cmd.v
    (Cmd.info "hetero" ~doc:"Heterogeneous-cluster enrollment experiment.")
    term

let kvload_cmd =
  let run tel keys zipf seed =
    let r = Extensions.kvload ~keys ~zipf ~seed () in
    Printf.printf
      "== Data plane: %d %s keys, %d -> %d vnodes on 16 snodes ==\n"
      r.Extensions.keys
      (if zipf then "zipf" else "uniform")
      r.Extensions.initial_vnodes r.Extensions.final_vnodes;
    Printf.printf "key-load sigma before growth: %.2f %%\n"
      r.Extensions.load_sigma_before;
    Printf.printf "key-load sigma after growth:  %.2f %%\n"
      r.Extensions.load_sigma_after;
    Printf.printf "quota sigma after growth:     %.2f %%\n"
      r.Extensions.quota_sigma_after;
    Printf.printf "keys that changed owner: %d, keys lost: %d\n"
      r.Extensions.migrations r.Extensions.lost;
    List.iter print_endline r.Extensions.findings;
    Printf.printf "invariant findings: %d\n" (List.length r.Extensions.findings);
    finish_telemetry tel;
    if r.Extensions.lost > 0 || r.Extensions.findings <> [] then exit 1
  in
  let keys =
    Arg.(value & opt positive_int 100_000 & info [ "keys" ] ~docv:"K"
           ~doc:"Number of key/value pairs to store.")
  in
  let zipf =
    Arg.(value & flag & info [ "zipf" ] ~doc:"Draw keys from a Zipf popularity law.")
  in
  let term = Term.(const run $ telemetry_term $ keys $ zipf $ seed_arg) in
  Cmd.v (Cmd.info "kvload" ~doc:"Data-plane balance and no-key-loss audit.") term

let churn_cmd =
  let run tel ops leave_fraction seed =
    let r = Extensions.churn ~operations:ops ~leave_fraction ~seed () in
    Printf.printf
      "== Churn: %d ops (%.0f%% leaves) from 128 vnodes on 32 snodes ==\n" ops
      (100. *. leave_fraction);
    Printf.printf "joins %d, leaves %d, blocked leaves %d, final vnodes %d\n"
      r.Extensions.joins r.Extensions.leaves r.Extensions.blocked_leaves
      r.Extensions.final_vnodes;
    let curve = r.Extensions.sigma_qv_curve in
    Printf.printf "sigma(Qv): start %.2f%%, end %.2f%%, max %.2f%%\n" curve.(0)
      curve.(Array.length curve - 1)
      (Array.fold_left Float.max 0. curve);
    Printf.printf
      "keys that changed owner: %d, keys lost: %d, invariant findings: %d\n"
      r.Extensions.churn_keys_moved r.Extensions.churn_keys_lost
      r.Extensions.audit_failures;
    finish_telemetry tel;
    if r.Extensions.churn_keys_lost > 0 || r.Extensions.audit_failures > 0 then
      exit 1
  in
  let ops =
    Arg.(value & opt positive_int 400 & info [ "ops" ] ~docv:"N"
           ~doc:"Number of join/leave operations.")
  in
  let leave =
    Arg.(value & opt probability 0.4 & info [ "leave-fraction" ] ~docv:"F"
           ~doc:"Probability that an operation is a leave.")
  in
  let term = Term.(const run $ telemetry_term $ ops $ leave $ seed_arg) in
  Cmd.v
    (Cmd.info "churn" ~doc:"Dynamic joins and leaves with data and invariant audits.")
    term

let ablation_cmd =
  let run tel runs vnodes seed =
    let r = Extensions.ablation_selection ~runs ~vnodes ~seed () in
    Printf.printf
      "== Ablation: victim selection (quota-proportional lookup vs uniform group) ==\n";
    let table = Table.create ~headers:[ "selection"; "sigma(Qv) %"; "sigma(Qg) %" ] in
    Table.add_row table
      [ "quota lookup (paper)";
        Printf.sprintf "%.3f" r.Extensions.quota_sigma_qv;
        Printf.sprintf "%.3f" r.Extensions.quota_sigma_qg ];
    Table.add_row table
      [ "uniform group";
        Printf.sprintf "%.3f" r.Extensions.uniform_sigma_qv;
        Printf.sprintf "%.3f" r.Extensions.uniform_sigma_qg ];
    Table.print table;
    finish_telemetry tel
  in
  let term =
    Term.(const run $ telemetry_term $ runs_arg 20 $ vnodes_arg 512 $ seed_arg)
  in
  Cmd.v
    (Cmd.info "ablation"
       ~doc:"Quantify the section-3.6 victim-selection design choice.")
    term

let hetero_compare_cmd =
  let run tel runs seed =
    let r = Extensions.hetero_compare ~runs ~seed () in
    Printf.printf
      "== Heterogeneous quota tracking: local enrollment vs weighted CH ==\n";
    let table = Table.create ~headers:[ "model"; "max |q/share-1|"; "rms" ] in
    Table.add_row table
      [ "local approach";
        Printf.sprintf "%.3f" r.Extensions.local_max_err;
        Printf.sprintf "%.3f" r.Extensions.local_rms_err ];
    Table.add_row table
      [ "weighted CH";
        Printf.sprintf "%.3f" r.Extensions.ch_max_err;
        Printf.sprintf "%.3f" r.Extensions.ch_rms_err ];
    Table.print table;
    finish_telemetry tel
  in
  let term = Term.(const run $ telemetry_term $ runs_arg 20 $ seed_arg) in
  Cmd.v
    (Cmd.info "hetero-compare"
       ~doc:"Capacity-share tracking: local enrollment vs points-weighted CH.")
    term

let distributed_cmd =
  let run tel snodes vnodes seed =
    let r =
      Extensions.distributed ~snodes ~vnodes ~metrics:tel.tel_reg
        ~trace:tel.tel_trace ~seed ()
    in
    Printf.printf
      "== Distributed snode runtime: %d vnodes on %d snodes (message-level) ==\n"
      vnodes snodes;
    Printf.printf "sigma(Qv): distributed %.2f%% vs centralized oracle %.2f%%\n"
      r.Extensions.dist_sigma_qv r.Extensions.oracle_sigma_qv;
    Printf.printf
      "traffic: %d messages, %.1f MB; stale-cache retries: %d; makespan %.3fs\n"
      r.Extensions.dist_messages
      (float_of_int r.Extensions.dist_bytes /. 1e6)
      r.Extensions.dist_retries r.Extensions.makespan;
    Printf.printf "keys wrong: %d, audit: %s\n" r.Extensions.dist_keys_wrong
      (if r.Extensions.dist_audit_ok then "ok" else "FAILED");
    finish_telemetry tel;
    if r.Extensions.dist_keys_wrong > 0 || not r.Extensions.dist_audit_ok then
      exit 1
  in
  let term =
    Term.(const run $ telemetry_term $ snodes_arg 16 $ vnodes_arg 128 $ seed_arg)
  in
  Cmd.v
    (Cmd.info "distributed"
       ~doc:"Run the message-level snode runtime and audit its convergence.")
    term

let chaos_cmd =
  (* The --overload variant: sustained over-capacity load plus one
     gray-failed snode, gated on the metastability criteria (no lost acked
     write, bounded queues, post-burst goodput recovery, and the adaptive
     retry path beating the fixed-RTO baseline). *)
  let run_overload tel slow retry_budget seed =
    let r =
      Extensions.overload ~slow_factor:slow ~retry_budget
        ~metrics:tel.tel_reg ~trace:tel.tel_trace ~causal:tel.tel_causal
        ~seed ()
    in
    Printf.printf
      "== Overload: %.0f puts/s, burst %.0f puts/s, snode %d %.0fx slower ==\n"
      r.Extensions.ov_rate r.Extensions.ov_burst_rate
      r.Extensions.ov_slow_snode r.Extensions.ov_slow_factor;
    let table =
      Table.create
        ~headers:
          [ "phase"; "offered"; "acked"; "busy"; "timely";
            "goodput/s"; "throughput/s" ]
    in
    List.iter
      (fun (p : Extensions.overload_phase) ->
        Table.add_row table
          [ p.Extensions.ph_name;
            string_of_int p.Extensions.ph_offered;
            string_of_int p.Extensions.ph_acked;
            string_of_int p.Extensions.ph_busy;
            string_of_int p.Extensions.ph_timely;
            Printf.sprintf "%.0f" p.Extensions.ph_goodput;
            Printf.sprintf "%.0f" p.Extensions.ph_throughput ])
      r.Extensions.ov_phases;
    Table.print table;
    Printf.printf
      "goodput counts acks within %.0f ms of issue; throughput also counts \
       late acks and Busy rejections\n"
      (1000. *. r.Extensions.ov_slo);
    let ov = r.Extensions.ov_overload in
    Printf.printf
      "degradation layer: %d sheds, %d busy rejections, %d backpressured, \
       %d probes past budget, outbox peak %d, ingress peak %d (%d overflows)\n"
      ov.Dht_snode.Runtime.sheds ov.Dht_snode.Runtime.busy_rejections
      ov.Dht_snode.Runtime.backpressured ov.Dht_snode.Runtime.probes
      ov.Dht_snode.Runtime.outbox_peak ov.Dht_snode.Runtime.ingress_peak
      ov.Dht_snode.Runtime.ingress_overflows;
    Printf.printf
      "retransmissions/op: %.4f adaptive+budget vs %.4f fixed-RTO baseline \
       (%s)\n"
      r.Extensions.ov_retx_per_op r.Extensions.ov_fixed_retx_per_op
      (if r.Extensions.ov_retx_per_op < r.Extensions.ov_fixed_retx_per_op
       then "adaptive wins"
       else "ADAPTIVE NOT BETTER");
    Printf.printf
      "acked writes: %d, lost: %d; pending: %d; post/pre goodput: %.2f\n"
      r.Extensions.ov_acked r.Extensions.ov_lost_acked r.Extensions.ov_pending
      r.Extensions.ov_recovery_ratio;
    (* Gray-failure health ranking from the mid-burst reliable-layer
       telemetry: the scorer must name the planted slow snode without being
       told which one it is. *)
    let health = r.Extensions.ov_health in
    let health_table =
      Table.create ~headers:[ "snode"; "health score (1.0 = median)"; "" ]
    in
    List.iter
      (fun (sid, score) ->
        Table.add_row health_table
          [ string_of_int sid;
            Printf.sprintf "%.2f" score;
            (if sid = r.Extensions.ov_slow_snode then "<- planted gray failure"
             else "") ])
      health;
    print_endline "health ranking (worst first, sampled mid-burst):";
    Table.print health_table;
    let health_named =
      match health with
      | (worst, _) :: _ -> worst = r.Extensions.ov_slow_snode
      | [] -> false
    in
    Printf.printf "health scorer: %s\n"
      (if health_named then "named the gray-failed snode"
       else "FAILED to name the gray-failed snode");
    List.iter (Printf.printf "queue audit: %s\n") r.Extensions.ov_queue_audit;
    List.iter
      (Printf.printf "busy audit: %s\n")
      r.Extensions.ov_busy_violations;
    Printf.printf "audit: %s, queue discipline: %s, busy discipline: %s\n"
      (if r.Extensions.ov_audit_ok then "ok" else "FAILED")
      (if r.Extensions.ov_queue_audit = [] then "ok" else "FAILED")
      (if r.Extensions.ov_busy_violations = [] then "ok" else "FAILED");
    finish_telemetry tel;
    if
      r.Extensions.ov_lost_acked > 0
      || r.Extensions.ov_pending > 0
      || (not r.Extensions.ov_audit_ok)
      || r.Extensions.ov_queue_audit <> []
      || r.Extensions.ov_busy_violations <> []
      || r.Extensions.ov_recovery_ratio < 0.9
      || r.Extensions.ov_retx_per_op >= r.Extensions.ov_fixed_retx_per_op
      || not health_named
    then exit 1
  in
  let run tel overload slow retry_budget snodes vnodes keys drop dup jitter
      crashes downtime (rfactor, read_quorum, write_quorum) linger route_cap
      seed =
    if overload then run_overload tel slow retry_budget seed
    else begin
    let r =
      Extensions.chaos ~snodes ~vnodes ~keys ~drop ~dup ~jitter ~crashes
        ~downtime ~rfactor ~read_quorum ~write_quorum ~linger ~route_cap
        ~metrics:tel.tel_reg ~trace:tel.tel_trace ~causal:tel.tel_causal
        ~seed ()
    in
    Printf.printf
      "== Chaos: %d vnodes on %d snodes, drop %.1f%%, dup %.1f%%, %d crashes ==\n"
      vnodes snodes (100. *. drop) (100. *. dup) crashes;
    let table = Table.create ~headers:[ ""; "faulty"; "faultless" ] in
    Table.add_row table
      [ "sigma(Qv) %";
        Printf.sprintf "%.2f" r.Extensions.chaos_sigma_qv;
        Printf.sprintf "%.2f" r.Extensions.baseline_sigma_qv ];
    Table.add_row table
      [ "messages";
        string_of_int r.Extensions.chaos_messages;
        string_of_int r.Extensions.baseline_messages ];
    Table.add_row table
      [ "burst makespan s";
        Printf.sprintf "%.3f" r.Extensions.chaos_makespan;
        Printf.sprintf "%.3f" r.Extensions.baseline_makespan ];
    Table.print table;
    let s = r.Extensions.chaos_stats in
    Printf.printf
      "faults injected: %d drops, %d duplicates; recovery: %d timeouts, %d \
       retransmits, %d crashes, %d recoveries\n"
      s.Dht_snode.Runtime.drops s.Dht_snode.Runtime.duplicates
      s.Dht_snode.Runtime.timeouts s.Dht_snode.Runtime.retransmits
      s.Dht_snode.Runtime.crashes s.Dht_snode.Runtime.recoveries;
    if s.Dht_snode.Runtime.recoveries > 0 then
      Printf.printf "recovery downtime: p50 %.3fs, p99 %.3fs\n"
        r.Extensions.chaos_recovery_p50 r.Extensions.chaos_recovery_p99;
    if r.Extensions.chaos_route_cap > 0 then begin
      let rc = r.Extensions.chaos_route in
      Printf.printf
        "bounded routing cache: %d hits, %d misses, peak %d entries, %d \
         steward refreshes\n"
        rc.Dht_snode.Runtime.rcs_hits
        rc.Dht_snode.Runtime.rcs_misses rc.Dht_snode.Runtime.rcs_peak
        rc.Dht_snode.Runtime.rcs_refreshes
    end;
    let tags = Table.create ~headers:[ "message tag"; "msgs"; "bytes" ] in
    List.iter
      (fun (tag, msgs, bytes) ->
        Table.add_row tags [ tag; string_of_int msgs; string_of_int bytes ])
      r.Extensions.chaos_per_tag;
    Table.print tags;
    Printf.printf "keys wrong: %d, operations pending: %d, audit: %s\n"
      r.Extensions.chaos_keys_wrong r.Extensions.chaos_pending
      (if r.Extensions.chaos_audit_ok then "ok" else "FAILED");
    if r.Extensions.chaos_rfactor > 1 then begin
      let rs = r.Extensions.chaos_repl in
      Printf.printf
        "replication rfactor=%d R=%d W=%d: %d acked writes, %d lost (%s)\n"
        r.Extensions.chaos_rfactor r.Extensions.chaos_read_quorum
        r.Extensions.chaos_write_quorum r.Extensions.chaos_acked_writes
        r.Extensions.chaos_lost_acked
        (if r.Extensions.chaos_lost_acked = 0 then "durable" else "DATA LOSS");
      Printf.printf
        "hints stored %d / flushed %d; read repairs %d; anti-entropy %d \
         cells, %d orphans routed home\n"
        rs.Dht_snode.Runtime.hints_stored rs.Dht_snode.Runtime.hints_flushed
        rs.Dht_snode.Runtime.read_repairs rs.Dht_snode.Runtime.sync_cells
        rs.Dht_snode.Runtime.orphans;
      Printf.printf "quorum latency p50: put %.6fs, get %.6fs\n"
        r.Extensions.chaos_qput_p50 r.Extensions.chaos_qget_p50
    end;
    if r.Extensions.chaos_batches > 0 then
      Printf.printf
        "batching (linger %gs): %d envelopes carried %d messages (occupancy \
         p50 %.1f), %d envelope bytes saved\n"
        r.Extensions.chaos_linger r.Extensions.chaos_batches
        r.Extensions.chaos_batched_parts
        r.Extensions.chaos_batch_occupancy_p50
        r.Extensions.chaos_batch_saved_bytes;
    finish_telemetry tel;
    if
      r.Extensions.chaos_keys_wrong > 0
      || r.Extensions.chaos_pending > 0
      || r.Extensions.chaos_lost_acked > 0
      || not r.Extensions.chaos_audit_ok
    then exit 1
    end
  in
  let overload =
    Arg.(value & flag
         & info [ "overload" ]
             ~doc:
               "Run the overload/gray-failure scenario instead: paced \
                quorum writes at capacity, a 2x burst with one slow snode, \
                and the metastability gates (no lost acked write, bounded \
                queues, goodput recovery, adaptive retries beating the \
                fixed-RTO baseline). Exits non-zero if any gate fails.")
  in
  let slow =
    let factor =
      checked "a number >= 1" float_of_string_opt
        (fun x -> x >= 1. && Float.is_finite x)
        Format.pp_print_float
    in
    Arg.(value & opt factor 100. & info [ "slow" ] ~docv:"F"
           ~doc:
             "Service-time inflation of the gray-failed snode during the \
              overload burst (with --overload).")
  in
  let retry_budget =
    Arg.(value & opt (at_least 0) 3 & info [ "retry-budget" ] ~docv:"N"
           ~doc:
             "Per-message retransmission budget of the degraded run (with \
              --overload); past it the sender falls back to slow probing.")
  in
  let keys =
    Arg.(value & opt positive_int 600 & info [ "keys" ] ~docv:"K"
           ~doc:"Number of key/value pairs stored before the burst.")
  in
  let drop =
    Arg.(value & opt probability 0.03 & info [ "drop" ] ~docv:"P"
           ~doc:"Per-message drop probability.")
  in
  let dup =
    Arg.(value & opt probability 0.015 & info [ "dup" ] ~docv:"P"
           ~doc:"Per-message duplication probability.")
  in
  let jitter =
    Arg.(value & opt non_negative_float 2e-4 & info [ "jitter" ] ~docv:"S"
           ~doc:"Maximum extra delivery latency (seconds, uniform).")
  in
  let crashes =
    Arg.(value & opt (at_least 0) 2 & info [ "crashes" ] ~docv:"N"
           ~doc:"Snodes crash-stopped (and restarted) mid-burst.")
  in
  let downtime =
    Arg.(value & opt positive_float 0.05 & info [ "downtime" ] ~docv:"S"
           ~doc:"Virtual seconds each crashed snode stays down.")
  in
  let route_cap =
    (* Only the sign matters; the floor is the Pmin = 8 partitions of one
       chaos vnode. *)
    let cap =
      checked "0 or an integer >= 8" int_of_string_opt
        (fun n -> n = 0 || n >= 8)
        Format.pp_print_int
    in
    Arg.(value & opt cap 0 & info [ "route-cap" ] ~docv:"E"
           ~doc:
             "A positive value (at least 8) arms bounded prefix routing, \
              whose caches keep the bootstrap placement and their snode's \
              steward regions; 0 keeps the legacy unbounded caches. The \
              value bounds nothing. Chaos-tests bounded routing under the \
              same fault mix as the data plane.")
  in
  let term =
    let snodes = snodes_arg 12 in
    Term.(const run $ telemetry_term $ overload $ slow $ retry_budget
          $ snodes $ vnodes_arg 40 $ keys $ drop
          $ dup $ jitter $ crashes $ downtime
          $ replication_term ~snodes ~rfactor:1 ~read:1 ~write:1 $ linger_arg
          $ route_cap
          $ seed_arg)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Fault injection: drops, duplicates, jitter and crash-stops against \
          the reliable snode runtime; verifies full convergence once faults \
          cease. With --rfactor > 1 the run also audits acknowledged-write \
          durability under quorum replication and exits non-zero on any \
          lost acknowledged write. With --overload the command instead runs \
          the overload/gray-failure scenario and its metastability gates.")
    term

let kv_cmd =
  (* The replication quickstart from the README: a small replicated
     cluster loses a snode, keeps serving quorum reads and writes, and
     re-converges the restarted replica via hinted handoff/anti-entropy. *)
  let module Runtime = Dht_snode.Runtime in
  let module Engine = Dht_event_sim.Engine in
  let module Invariants = Dht_check.Invariants in
  let run tel audit snodes (rfactor, read_quorum, write_quorum) keys linger seed =
    let faults = Runtime.Fault.create ~seed () in
    let rt =
      Runtime.create ~faults ~rfactor ~read_quorum ~write_quorum ~linger
        ~metrics:tel.tel_reg ~trace:tel.tel_trace ~causal:tel.tel_causal
        ~snodes ~seed ()
    in
    Printf.printf "== KV quickstart: %d snodes, rfactor=%d, R=%d, W=%d ==\n"
      snodes rfactor read_quorum write_quorum;
    (* --audit: also run the snode-local checks after every balancing
       commit; the full snapshot battery always runs at the end. *)
    let commit_audits = ref 0 in
    let commit_failures = ref [] in
    if audit then
      Runtime.set_on_commit rt
        (Some
           (fun ~event:_ ~snode ->
             incr commit_audits;
             let v = Runtime.view rt in
             match
               List.find_opt
                 (fun (s : Runtime.View.snode_view) -> s.sid = snode)
                 v.Runtime.View.snodes
             with
             | None -> ()
             | Some s ->
                 commit_failures :=
                   Invariants.to_strings
                     (Invariants.check_snode ~space:(Runtime.space rt) s)
                   @ !commit_failures));
    let acked = ref 0 in
    for i = 0 to keys - 1 do
      Runtime.put rt ~via:(i mod snodes)
        ~on_done:(fun () -> incr acked)
        ~key:(Printf.sprintf "k%d" i) ~value:(Printf.sprintf "v%d" i) ()
    done;
    Runtime.run rt;
    Printf.printf "stored %d keys (%d acknowledged)\n" keys !acked;
    let victim = snodes - 1 in
    Runtime.crash_snode rt victim;
    Printf.printf "crashed snode %d\n" victim;
    let horizon () = Engine.now (Runtime.engine rt) +. 0.5 in
    let wrong_down = ref 0 and mid_acked = ref 0 in
    for i = 0 to keys - 1 do
      Runtime.get rt ~via:(i mod max 1 victim) ~key:(Printf.sprintf "k%d" i)
        (fun v ->
          if v <> Some (Printf.sprintf "v%d" i) then incr wrong_down)
    done;
    Runtime.put rt ~via:0
      ~on_done:(fun () -> incr mid_acked)
      ~key:"mid-crash" ~value:"accepted" ();
    Runtime.run ~until:(horizon ()) rt;
    Printf.printf
      "with snode %d down: %d/%d reads correct, mid-crash write %s\n" victim
      (keys - !wrong_down) keys
      (if !mid_acked = 1 then "acknowledged" else "NOT acknowledged");
    Runtime.restart_snode rt victim;
    Runtime.run rt;
    Runtime.anti_entropy rt;
    Runtime.run rt;
    let wrong_up = ref 0 in
    for i = 0 to keys - 1 do
      Runtime.get rt ~via:victim ~key:(Printf.sprintf "k%d" i) (fun v ->
          if v <> Some (Printf.sprintf "v%d" i) then incr wrong_up)
    done;
    Runtime.get rt ~via:victim ~key:"mid-crash" (fun v ->
        if v <> Some "accepted" then incr wrong_up);
    Runtime.run rt;
    let s = Runtime.repl_stats rt in
    Printf.printf
      "snode %d restarted: %d/%d reads via it correct; hints stored %d / \
       flushed %d, read repairs %d, anti-entropy %d cells\n"
      victim
      (keys + 1 - !wrong_up)
      (keys + 1) s.Runtime.hints_stored s.Runtime.hints_flushed
      s.Runtime.read_repairs s.Runtime.sync_cells;
    Runtime.set_on_commit rt None;
    let findings =
      !commit_failures @ Invariants.to_strings (Invariants.check_runtime rt)
    in
    List.iter print_endline findings;
    Printf.printf "audit: %s%s\n"
      (if findings = [] then "ok" else "FAILED")
      (if audit then Printf.sprintf " (%d per-commit snode audits)" !commit_audits
       else "");
    finish_telemetry tel;
    if
      !acked < keys || !wrong_down > 0 || !mid_acked <> 1 || !wrong_up > 0
      || findings <> [] || Runtime.pending_operations rt <> 0
    then exit 1
  in
  let audit_flag =
    Arg.(value & flag
         & info [ "audit" ]
             ~doc:
               "Also run the snode-local invariant checks after every \
                balancing commit (the full snapshot battery always runs at \
                the end). Exits non-zero on any finding.")
  in
  let keys =
    Arg.(value & opt positive_int 12 & info [ "keys" ] ~docv:"K"
           ~doc:"Number of key/value pairs written before the crash.")
  in
  let term =
    let snodes = snodes_arg 3 in
    Term.(const run $ telemetry_term $ audit_flag $ snodes
          $ replication_term ~snodes ~rfactor:3 ~read:2 ~write:2 $ keys $ linger_arg
          $ seed_arg)
  in
  Cmd.v
    (Cmd.info "kv"
       ~doc:
         "Replicated KV quickstart: write under quorum, crash a snode, show \
          that reads and writes still succeed, then restart and verify the \
          replica re-converges. Exits non-zero on any stale read or lost \
          acknowledged write.")
    term

let range_cmd =
  (* Range-read smoke: a seeded replicated cluster with heat accounting
     armed serves random [lo, hi) quorum range reads, each verified
     against the hash + peek oracle: every key hashing inside the range
     is present exactly once, at its authoritative value. *)
  let module Runtime = Dht_snode.Runtime in
  let module Network = Dht_event_sim.Network in
  let module Hash = Dht_hashes.Hash in
  let module Space = Dht_hashspace.Space in
  let module Rng = Dht_prng.Rng in
  let run tel snodes (rfactor, read_quorum, write_quorum) keys queries seed =
    let rt =
      Runtime.create ~rfactor ~read_quorum ~write_quorum ~heat:true
        ~metrics:tel.tel_reg ~trace:tel.tel_trace ~causal:tel.tel_causal
        ~snodes ~seed ()
    in
    let space = Runtime.space rt in
    Printf.printf
      "== Range reads: %d snodes, rfactor=%d, R=%d, W=%d, %d keys ==\n"
      snodes rfactor read_quorum write_quorum keys;
    let acked = ref 0 in
    for i = 0 to keys - 1 do
      Runtime.put rt ~via:(i mod snodes)
        ~on_done:(fun () -> incr acked)
        ~key:(Printf.sprintf "k%d" i) ~value:(Printf.sprintf "v%d" i) ()
    done;
    Runtime.run rt;
    Printf.printf "stored %d keys (%d acknowledged)\n" keys !acked;
    let rng = Rng.of_int seed in
    let table =
      Table.create ~headers:[ "query"; "range width"; "keys"; "verdict" ]
    in
    let failures = ref 0 in
    for q = 1 to queries do
      let lo = Rng.int rng (Space.size space) in
      let hi = lo + 1 + Rng.int rng (Space.size space - lo) in
      let expected =
        List.init keys (fun i -> Printf.sprintf "k%d" i)
        |> List.filter_map (fun key ->
               let p = Hash.string space key in
               if p >= lo && p < hi then
                 Some (key, Option.value ~default:"?" (Runtime.peek rt ~key))
               else None)
        |> List.sort compare
      in
      let got = ref None in
      Runtime.range_get rt ~via:(q mod snodes) ~lo ~hi (fun r ->
          got := Some r);
      Runtime.run rt;
      let verdict =
        match !got with
        | None -> "LOST"
        | Some result ->
            if result = expected then "ok"
            else
              Printf.sprintf "MISMATCH (%d keys, oracle %d)"
                (List.length result) (List.length expected)
      in
      if verdict <> "ok" then incr failures;
      Table.add_row table
        [ string_of_int q;
          Printf.sprintf "%.1f%%"
            (100. *. float_of_int (hi - lo) /. float_of_int (Space.size space));
          string_of_int (List.length expected);
          verdict ]
    done;
    Table.print table;
    let msgs, bytes =
      List.fold_left
        (fun (m, b) (tag, tm, tb) ->
          if tag = "range:get" || tag = "range:reply" then (m + tm, b + tb)
          else (m, b))
        (0, 0)
        (Network.per_tag (Runtime.network rt))
    in
    let read_heat =
      List.fold_left
        (fun acc (h : Runtime.heat_row) -> acc +. h.Runtime.hr_reads)
        0. (Runtime.heat_rows rt)
    in
    Printf.printf
      "%d/%d ranges verified; %d range messages (%d bytes) on the wire; \
       read heat charged across %d partitions (total %.1f)\n"
      (queries - !failures) queries msgs bytes
      (List.length (Runtime.heat_rows rt))
      read_heat;
    Printf.printf "completed ranges: %d\n" (Runtime.completed_ranges rt);
    finish_telemetry tel;
    if !failures > 0 || Runtime.completed_ranges rt <> queries then exit 1
  in
  let keys =
    Arg.(value & opt positive_int 60 & info [ "keys" ] ~docv:"K"
           ~doc:"Number of key/value pairs written before querying.")
  in
  let queries =
    Arg.(value & opt positive_int 20 & info [ "queries" ] ~docv:"Q"
           ~doc:"Random hash-interval range reads to issue and verify.")
  in
  let term =
    let snodes = snodes_arg 5 in
    Term.(const run $ telemetry_term $ snodes
          $ replication_term ~snodes ~rfactor:3 ~read:2 ~write:2 $ keys $ queries
          $ seed_arg)
  in
  Cmd.v
    (Cmd.info "range"
       ~doc:
         "Quorum range-read smoke: write a keyset, issue random [lo, hi) \
          range reads and verify each against the hash placement oracle — \
          complete, duplicate-free, authoritative values — reporting wire \
          cost and per-partition heat. Exits non-zero on any mismatch.")
    term

let explore_cmd =
  let module Explorer = Dht_check.Explorer in
  let module Scenarios = Dht_check.Scenarios in
  let module Schedule = Dht_check.Schedule in
  let print_outcome (o : Explorer.outcome) =
    Printf.printf "schedule (%d tweaks, %d decision sites):\n%s"
      (Schedule.length o.schedule) o.sites
      (Schedule.to_string o.schedule);
    match o.failures with
    | [] -> print_endline "verdict: PASS"
    | fs ->
        print_endline "verdict: FAIL";
        List.iter (fun m -> Printf.printf "  %s\n" m) fs
  in
  let run tel scenario mutate snodes vnodes keys grow removes
      (rfactor, read_quorum, write_quorum) linger seeds seed rounds max_tweaks
      out replay =
    let name = if mutate then scenario ^ "-mutate" else scenario in
    let sc =
      if scenario = "kv" then
        Scenarios.kv ~name ~protect:(not mutate) ~snodes ~vnodes ~grow
          ~removes ~keys ~rfactor ~read_quorum ~write_quorum ~linger ()
      else
        Scenarios.mt_ae ~name ~protect:(not mutate) ~snodes ~keys ~rfactor
          ~read_quorum ~write_quorum ~linger ()
    in
    (match replay with
    | Some path -> (
        match Schedule.load ~path with
        | Error m ->
            prerr_endline ("cannot load schedule: " ^ m);
            finish_telemetry tel;
            exit 2
        | Ok sched ->
            let sc =
              match Scenarios.by_name ~linger sched.Schedule.scenario with
              | Some sc -> sc
              | None -> sc
            in
            Printf.printf "== replaying %s (scenario %s, seed %d) ==\n" path
              sched.Schedule.scenario sched.Schedule.seed;
            let o = Explorer.run sc sched in
            print_outcome o;
            finish_telemetry tel;
            exit (if o.Explorer.failures = [] then 0 else 1))
    | None ->
        let kinds : Explorer.kind list =
          if mutate then [ `Drop ] else [ `Delay; `Drop; `Crash; `Flush ]
        in
        let runs = ref 0 in
        let on_progress _ = incr runs in
        Printf.printf
          "== exploring scenario %s: %d seeds from %d, %d rounds, <= %d \
           tweaks ==\n\
           %!"
          name seeds seed rounds max_tweaks;
        let outcome =
          Explorer.explore ~rounds ~max_tweaks ~kinds ~on_progress sc
            ~seeds:(List.init seeds (fun i -> seed + i))
        in
        Printf.printf "explored %d runs\n" !runs;
        (match outcome with
        | None -> print_endline "no violation found"
        | Some o ->
            print_outcome o;
            Option.iter
              (fun path ->
                Schedule.save ~path o.Explorer.schedule;
                Printf.printf "wrote %s\n" path)
              out);
        finish_telemetry tel;
        (* In mutation mode finding the planted loss is the success
           criterion (a self-test of the detection pipeline); in normal
           mode a finding is a real bug. *)
        let found = outcome <> None in
        exit (if found <> mutate then 1 else 0))
  in
  let mutate =
    Arg.(value & flag
         & info [ "mutate" ]
             ~doc:
               "Self-test: run the unprotected scenario (no reliable-delivery \
                layer), sinking messages at explored decision sites, and \
                $(b,expect) the checkers to catch the damage. Exits non-zero \
                if nothing is found.")
  in
  let keys =
    Arg.(value & opt positive_int 12 & info [ "keys" ] ~docv:"K"
           ~doc:"Keys written (then overwritten and read) by the workload.")
  in
  let grow =
    Arg.(value & opt (at_least 0) 2 & info [ "grow" ] ~docv:"N"
           ~doc:"Vnodes created after the first write wave (migrates live data).")
  in
  let removes =
    Arg.(value & opt (at_least 0) 1 & info [ "removes" ] ~docv:"N"
           ~doc:"Vnodes removed after the second growth wave.")
  in
  let seeds =
    Arg.(value & opt positive_int 10 & info [ "seeds" ] ~docv:"N"
           ~doc:"Number of consecutive seeds to sweep.")
  in
  let rounds =
    Arg.(value & opt positive_int 20 & info [ "rounds" ] ~docv:"N"
           ~doc:"Perturbation rounds per seed.")
  in
  let max_tweaks =
    Arg.(value & opt positive_int 4 & info [ "max-tweaks" ] ~docv:"N"
           ~doc:"Maximum perturbations per explored schedule.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Write the (shrunk) failing schedule to $(docv).")
  in
  let replay =
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE"
           ~doc:
             "Replay a recorded schedule instead of exploring; exits \
              non-zero iff the replay fails its verifier.")
  in
  let linger_zero =
    Arg.(value & opt non_negative_float 0. & info [ "linger" ] ~docv:"S"
           ~doc:
             "Transmission-batching window for the scenario (0 disables \
              batching; flush tweaks only matter when > 0).")
  in
  let scenario =
    Arg.(value & opt (enum [ ("kv", "kv"); ("mt-ae", "mt-ae") ]) "kv"
         & info [ "scenario" ] ~docv:"NAME"
             ~doc:
               "Scenario to explore: $(b,kv) (grow/write/migrate/overwrite) \
                or $(b,mt-ae) (Merkle anti-entropy reconciliation with the \
                tree protocol forced on and divergence planted). With \
                $(b,--mutate) the unprotected variant of the same scenario \
                runs instead.")
  in
  let term =
    let snodes = snodes_arg 5 in
    Term.(const run $ telemetry_term $ scenario $ mutate $ snodes
          $ vnodes_arg 3 $ keys $ grow $ removes
          $ replication_term ~snodes ~rfactor:3 ~read:2 ~write:2 $ linger_zero $ seeds
          $ seed_arg $ rounds $ max_tweaks $ out $ replay)
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Deterministic schedule explorer: sweep seeds, perturb message \
          delivery (delays, sinks, crash/restart, linger flushes) at \
          recorded decision sites, audit every run with the paper-invariant \
          battery and the linearizability/session/durability checkers, and \
          shrink any failure to a minimal replayable schedule. With \
          $(b,--mutate) the run is a self-test that must find a planted \
          loss; otherwise any finding is a real bug and exits non-zero.")
    term

let coexist_cmd =
  let run tel load seed =
    let r = Extensions.coexist ~load ~seed () in
    Printf.printf
      "== Coexistence (section-6 future work): 2 DHTs + external load ==\n";
    let table =
      Table.create
        ~headers:[ "DHT"; "rms err (idle)"; "after load"; "after retarget" ]
    in
    List.iteri
      (fun i name ->
        Table.add_row table
          [
            name;
            Printf.sprintf "%.3f" (List.nth r.Extensions.error_before i);
            Printf.sprintf "%.3f" (List.nth r.Extensions.error_after_load i);
            Printf.sprintf "%.3f" (List.nth r.Extensions.error_after_retarget i);
          ])
      r.Extensions.dht_names;
    Table.print table;
    Printf.printf "retarget: %d vnodes added, %d removed, %d removals blocked\n"
      r.Extensions.coexist_added r.Extensions.coexist_removed
      r.Extensions.coexist_blocked;
    finish_telemetry tel
  in
  let load =
    let fraction =
      checked "a fraction in [0, 1)" float_of_string_opt
        (fun f -> f >= 0. && f < 1.)
        Format.pp_print_float
    in
    Arg.(value & opt fraction 0.6 & info [ "load" ] ~docv:"F"
           ~doc:"External load fraction on the loaded nodes.")
  in
  let term = Term.(const run $ telemetry_term $ load $ seed_arg) in
  Cmd.v
    (Cmd.info "coexist"
       ~doc:"Multi-DHT coexistence with external load (section-6 future work).")
    term

let heat_cmd =
  (* Per-partition heat accounting under a planted hot spot: a Zipf
     workload whose rank-1 key is known in advance must light up exactly
     the partition (and owning snode) that holds it. *)
  let module Runtime = Dht_snode.Runtime in
  let module Engine = Dht_event_sim.Engine in
  let module Keygen = Dht_workload.Keygen in
  let module Span = Dht_hashspace.Span in
  let module Hash = Dht_hashes.Hash in
  let module Heat = Dht_obsv.Heat in
  let run tel snodes vnodes nkeys s ops duration top tau
      (rfactor, read_quorum, write_quorum) json seed =
    let rt =
      Runtime.create ~metrics:tel.tel_reg ~trace:tel.tel_trace
        ~causal:tel.tel_causal ~heat:true ~heat_tau:tau ~rfactor ~read_quorum
        ~write_quorum ~snodes ~seed ()
    in
    for i = 1 to vnodes - 1 do
      Runtime.create_vnode rt
        ~id:(Dht_core.Vnode_id.make ~snode:(i mod snodes) ~vnode:(i / snodes))
        ()
    done;
    Runtime.run rt;
    (* Store every key once, then pace the Zipf access mix (80% reads)
       across [duration] virtual seconds so the EWMA decay is exercised. *)
    for rank = 1 to nkeys do
      Runtime.put rt ~via:(rank mod snodes)
        ~key:(Printf.sprintf "item%d" rank)
        ~value:(Printf.sprintf "v%d" rank) ()
    done;
    Runtime.run rt;
    let zipf = Keygen.Zipf.create ~n:nkeys ~s in
    let rng = Dht_prng.Rng.of_int (seed + 1) in
    let engine = Runtime.engine rt in
    let t0 = Engine.now engine +. 0.01 in
    for i = 0 to ops - 1 do
      let key = Keygen.Zipf.key zipf rng in
      let time = t0 +. (float_of_int i *. duration /. float_of_int ops) in
      let via = i mod snodes in
      if Dht_prng.Rng.float rng < 0.8 then
        Engine.at engine ~time (fun () -> Runtime.get rt ~via ~key ignore)
      else
        Engine.at engine ~time (fun () ->
            Runtime.put rt ~via ~key ~value:(Printf.sprintf "u%d" i) ())
    done;
    Runtime.run rt;
    let rows = Runtime.heat_rows rt in
    let ranked =
      List.stable_sort
        (fun a b -> compare (Runtime.heat_total b) (Runtime.heat_total a))
        rows
    in
    if not json then
      Printf.printf
        "== Heat: zipf(s=%.2f) over %d keys, %d ops on %d snodes ==\n" s nkeys
        ops snodes;
    (* Skew summaries: Gini across partitions, sigma across the snodes'
       aggregate heat — the imbalance a heat-aware balancer would act on. *)
    let totals = List.map Runtime.heat_total rows in
    let per_snode = Array.make snodes 0. in
    List.iter
      (fun (r : Runtime.heat_row) ->
        if r.Runtime.hr_owner >= 0 && r.Runtime.hr_owner < snodes then
          per_snode.(r.Runtime.hr_owner) <-
            per_snode.(r.Runtime.hr_owner) +. Runtime.heat_total r)
      rows;
    let gini = Heat.gini (Array.of_list totals) in
    let sigma = Heat.sigma_pct per_snode in
    (* The planted hot spot: rank 1 of the Zipf law is the key "item1"
       ({!Dht_workload.Keygen.Zipf.key}); attribution must put its
       partition first and name a live owner. *)
    let hot_point = Hash.string (Runtime.space rt) "item1" in
    let attributed =
      match ranked with
      | (r : Runtime.heat_row) :: _ ->
          Span.contains (Runtime.space rt) r.Runtime.hr_span hot_point
          && r.Runtime.hr_owner >= 0
      | [] -> false
    in
    let audit_ok = Dht_check.Invariants.check_runtime rt = [] in
    if json then begin
      (* Machine-readable report: the same skew summaries and top-K rows
         the human tables carry, one JSON object on stdout. *)
      let b = Buffer.create 1024 in
      Buffer.add_string b "{\n";
      Printf.bprintf b
        "  \"zipf\": %g, \"keys\": %d, \"ops\": %d, \"snodes\": %d, \
         \"tau\": %g,\n"
        s nkeys ops snodes tau;
      Printf.bprintf b
        "  \"gini_partitions\": %.6f, \"sigma_snodes_pct\": %.3f,\n" gini
        sigma;
      Printf.bprintf b "  \"partitions\": %d,\n" (List.length ranked);
      Printf.bprintf b "  \"per_snode_heat\": [%s],\n"
        (String.concat ", "
           (Array.to_list (Array.map (Printf.sprintf "%.3f") per_snode)));
      Printf.bprintf b "  \"top\": [\n";
      let shown = List.filteri (fun i _ -> i < top) ranked in
      List.iteri
        (fun i (r : Runtime.heat_row) ->
          Printf.bprintf b
            "    {\"partition\": \"%s\", \"owner\": %d, \"reads\": %.3f, \
             \"writes\": %.3f, \"repl\": %.3f, \"bytes\": %.0f, \
             \"total\": %.3f, \"accesses\": %d}%s\n"
            (Format.asprintf "%a" Span.pp r.Runtime.hr_span)
            r.Runtime.hr_owner r.Runtime.hr_reads r.Runtime.hr_writes
            r.Runtime.hr_repl r.Runtime.hr_bytes (Runtime.heat_total r)
            (r.Runtime.hr_read_count + r.Runtime.hr_write_count
           + r.Runtime.hr_repl_count)
            (if i = List.length shown - 1 then "" else ","))
        shown;
      Buffer.add_string b "  ],\n";
      Printf.bprintf b "  \"hot_key_attributed\": %b, \"audit_ok\": %b\n"
        attributed audit_ok;
      Buffer.add_string b "}\n";
      print_string (Buffer.contents b)
    end
    else begin
      let table =
        Table.create
          ~headers:
            [ "partition"; "owner"; "reads"; "writes"; "repl"; "bytes";
              "total"; "accesses" ]
      in
      List.iteri
        (fun i (r : Runtime.heat_row) ->
          if i < top then
            Table.add_row table
              [ Format.asprintf "%a" Span.pp r.Runtime.hr_span;
                string_of_int r.Runtime.hr_owner;
                Printf.sprintf "%.1f" r.Runtime.hr_reads;
                Printf.sprintf "%.1f" r.Runtime.hr_writes;
                Printf.sprintf "%.1f" r.Runtime.hr_repl;
                Printf.sprintf "%.0f" r.Runtime.hr_bytes;
                Printf.sprintf "%.1f" (Runtime.heat_total r);
                string_of_int
                  (r.Runtime.hr_read_count + r.Runtime.hr_write_count
                 + r.Runtime.hr_repl_count) ])
        ranked;
      Printf.printf "top %d of %d heated partitions (EWMA tau %gs):\n"
        (min top (List.length ranked))
        (List.length ranked) tau;
      Table.print table;
      Printf.printf
        "heat skew: Gini %.3f across partitions, sigma %.1f%% across snodes\n"
        gini sigma;
      (match ranked with
      | r :: _ when attributed ->
          Printf.printf
            "hot spot: key item1 (hash %d) attributed to partition %s on \
             snode %d\n"
            hot_point
            (Format.asprintf "%a" Span.pp r.Runtime.hr_span)
            r.Runtime.hr_owner
      | _ ->
          Printf.printf
            "hot spot: key item1 (hash %d) NOT attributed to the hottest \
             partition\n"
            hot_point)
    end;
    Runtime.record_metrics rt tel.tel_reg;
    finish_telemetry tel;
    if not json then
      Printf.printf "audit: %s, attribution: %s\n"
        (if audit_ok then "ok" else "FAILED")
        (if attributed then "ok" else "FAILED");
    if (not audit_ok) || not attributed then exit 1
  in
  let nkeys =
    Arg.(value & opt positive_int 1000 & info [ "keys" ] ~docv:"N"
           ~doc:"Number of distinct keys (Zipf ranks).")
  in
  let zipf_s =
    Arg.(value & opt non_negative_float 0.99 & info [ "zipf" ] ~docv:"S"
           ~doc:"Zipf skew exponent of the access mix.")
  in
  let ops =
    Arg.(value & opt positive_int 10000 & info [ "ops" ] ~docv:"N"
           ~doc:"Accesses issued (80% reads, 20% overwrites).")
  in
  let duration =
    Arg.(value & opt positive_float 2.0 & info [ "duration" ] ~docv:"S"
           ~doc:"Virtual seconds the access mix is paced across.")
  in
  let top =
    Arg.(value & opt (at_least 0) 10 & info [ "top" ] ~docv:"K"
           ~doc:"Hot partitions shown in the report.")
  in
  let tau =
    Arg.(value & opt positive_float 1.0 & info [ "tau" ] ~docv:"S"
           ~doc:"EWMA time constant of the heat counters (virtual seconds).")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:
             "Machine-readable output: one JSON object with the skew \
              summaries (Gini, sigma), per-snode heat totals and the top-K \
              partition rows instead of the human tables.")
  in
  let term =
    let snodes = snodes_arg 8 in
    Term.(const run $ telemetry_term $ snodes $ vnodes_arg 24 $ nkeys
          $ zipf_s $ ops $ duration $ top $ tau
          $ replication_term ~snodes ~rfactor:3 ~read:2 ~write:2 $ json $ seed_arg)
  in
  Cmd.v
    (Cmd.info "heat"
       ~doc:
         "Per-partition heat accounting under a planted Zipf hot spot: \
          EWMA read/write/replica-traffic counters per partition, skew \
          summaries (Gini, sigma across snodes) and the top-K table \
          ($(b,--json) for a machine-readable report). Exits non-zero \
          unless the hottest partition is the one holding the rank-1 key \
          and has a live owner. Heat series also land in --metrics-csv.")
    term

let balance_cmd =
  (* The active balancer's acceptance run: the same seeded Zipf stream
     twice (balancer off, then on) over a queueing-capable fabric; the
     balancer must cut both the per-snode heat Gini and the p99 op
     latency without tripping the invariant battery, the linearizability
     checkers or the acked-write durability oracle. *)
  let run tel snodes nkeys s rate duration max_inflight tau crash seed =
    let r =
      Extensions.skew ~snodes ~keys:nkeys ~zipf:s ~rate ~duration
        ~max_inflight ~heat_tau:tau ~crash ~metrics:tel.tel_reg ~seed ()
    in
    Printf.printf
      "== Active balancing: zipf(s=%.2f) over %d keys at %g ops/s on %d \
       snodes%s ==\n"
      s nkeys rate snodes
      (if crash then ", one mid-run crash/restart" else "");
    let row name (x : Extensions.skew_run) =
      [ name;
        Printf.sprintf "%.4f" x.Extensions.sk_gini;
        Printf.sprintf "%.1f%%" x.Extensions.sk_sigma;
        Printf.sprintf "%.2f ms" (1e3 *. x.Extensions.sk_p50);
        Printf.sprintf "%.2f ms" (1e3 *. x.Extensions.sk_p99);
        string_of_int x.Extensions.sk_completed;
        string_of_int x.Extensions.sk_acked;
        string_of_int x.Extensions.sk_lb.Dht_snode.Runtime.lbs_transfers;
        string_of_int
          (List.length x.Extensions.sk_findings
          + List.length x.Extensions.sk_linear
          + x.Extensions.sk_lost) ]
    in
    let table =
      Table.create
        ~headers:
          [ "balancer"; "gini"; "sigma"; "p50"; "p99"; "completed"; "acked";
            "transfers"; "findings" ]
    in
    Table.add_row table (row "off" r.Extensions.sk_off);
    Table.add_row table (row "on" r.Extensions.sk_on);
    Table.print table;
    let dump name (x : Extensions.skew_run) =
      List.iter
        (fun f -> Printf.printf "%s invariant finding: %s\n" name f)
        x.Extensions.sk_findings;
      List.iter
        (fun f -> Printf.printf "%s linearizability finding: %s\n" name f)
        x.Extensions.sk_linear;
      if x.Extensions.sk_lost > 0 then
        Printf.printf "%s: %d acked writes LOST\n" name x.Extensions.sk_lost
    in
    dump "off" r.Extensions.sk_off;
    dump "on" r.Extensions.sk_on;
    let clean (x : Extensions.skew_run) =
      x.Extensions.sk_findings = [] && x.Extensions.sk_linear = []
      && x.Extensions.sk_lost = 0
    in
    let gini_ok = r.Extensions.sk_on.sk_gini < r.Extensions.sk_off.sk_gini in
    let p99_ok = r.Extensions.sk_on.sk_p99 < r.Extensions.sk_off.sk_p99 in
    let safe = clean r.Extensions.sk_off && clean r.Extensions.sk_on in
    Printf.printf
      "gini: %s (%.4f -> %.4f)  p99: %s (%.2f ms -> %.2f ms)  safety: %s\n"
      (if gini_ok then "improved" else "NOT improved")
      r.Extensions.sk_off.sk_gini r.Extensions.sk_on.sk_gini
      (if p99_ok then "improved" else "NOT improved")
      (1e3 *. r.Extensions.sk_off.sk_p99)
      (1e3 *. r.Extensions.sk_on.sk_p99)
      (if safe then "clean" else "FINDINGS");
    finish_telemetry tel;
    if not (gini_ok && p99_ok && safe) then exit 1
  in
  let nkeys =
    Arg.(value & opt positive_int 1000 & info [ "keys" ] ~docv:"N"
           ~doc:"Number of distinct keys (Zipf ranks).")
  in
  let zipf_s =
    Arg.(value & opt non_negative_float 0.99 & info [ "zipf" ] ~docv:"S"
           ~doc:"Zipf skew exponent of the access mix.")
  in
  let rate =
    Arg.(value & opt positive_float 20000. & info [ "rate" ] ~docv:"OPS"
           ~doc:"Operations per virtual second.")
  in
  let duration =
    Arg.(value & opt positive_float 1.0 & info [ "duration" ] ~docv:"S"
           ~doc:"Virtual seconds of paced load.")
  in
  let max_inflight =
    Arg.(value & opt (at_least 0) 4 & info [ "max-inflight" ] ~docv:"N"
           ~doc:
             "Per-peer window bound of the reliable layer; with the slow \
              fabric this is what makes latency respond to placement.")
  in
  let tau =
    Arg.(value & opt positive_float 0.3 & info [ "tau" ] ~docv:"S"
           ~doc:"EWMA time constant of the heat counters (virtual seconds).")
  in
  let crash =
    Arg.(value & flag & info [ "crash" ]
           ~doc:
             "Crash-stop one snode a third of the way in and restart it at \
              two thirds: transfers must survive the churn with zero \
              acked-write loss.")
  in
  let term =
    Term.(const run $ telemetry_term $ snodes_arg 8 $ nkeys $ zipf_s $ rate
          $ duration $ max_inflight $ tau $ crash $ seed_arg)
  in
  Cmd.v
    (Cmd.info "balance"
       ~doc:
         "Load-aware active balancing under Zipf skew: gossip load \
          dissemination, hash-located load directories and hot-partition \
          swaps. Runs the same seeded stream with the balancer off and on; \
          exits non-zero unless balancer-on improves both the per-snode \
          heat Gini and the p99 op latency with a clean invariant battery, \
          no linearizability findings and no lost acked writes.")
    term

let route_cmd =
  (* The O(log N) prefix-routing scaling sweep and its CI gates: for each
     cluster size, run the windowed workload (with mid-window churn by
     default) against bounded routing caches and check the hop, occupancy
     and safety gates. *)
  let run tel sizes vnodes route_cap max_hops keys ops rate read_fraction
      no_churn json seed =
    let runs =
      List.map
        (fun snodes ->
          Extensions.routing_scaling ?vnodes ~route_cap ~max_hops ~keys ~ops
            ~rate ~read_fraction ~churn:(not no_churn) ~metrics:tel.tel_reg
            ~snodes ~seed ())
        sizes
    in
    Printf.printf
      "== Prefix-routing scaling: cap %d entries/snode, %d ops over %d \
       derived keys%s ==\n"
      route_cap ops keys
      (if no_churn then "" else ", mid-window crash/restart + join");
    let table =
      Table.create
        ~headers:
          [ "N"; "level"; "ops"; "p50"; "p99"; "max"; "msgs/op"; "cache max";
            "bytes"; "hit%"; "sigma"; "findings" ]
    in
    List.iter
      (fun (r : Extensions.routing_run) ->
        Table.add_row table
          [ string_of_int r.Extensions.rs_snodes;
            string_of_int r.Extensions.rs_level;
            string_of_int r.Extensions.rs_ops;
            Printf.sprintf "%.0f" r.Extensions.rs_hops_p50;
            Printf.sprintf "%.0f" r.Extensions.rs_hops_p99;
            string_of_int r.Extensions.rs_hops_max;
            Printf.sprintf "%.2f" r.Extensions.rs_msgs_per_op;
            string_of_int r.Extensions.rs_cache_entries_max;
            string_of_int r.Extensions.rs_cache_bytes_max;
            Printf.sprintf "%.1f" (Extensions.routing_hit_pct r);
            Printf.sprintf "%.1f%%" r.Extensions.rs_sigma;
            string_of_int
              (List.length r.Extensions.rs_findings
              + List.length r.Extensions.rs_linear) ])
      runs;
    Table.print table;
    (* The gates the CI perf matrix enforces: p99 hops within 2 log2 N and
       a clean safety battery, which bounds every cache's entries outside
       its steward regions by the geometry. *)
    let failed = ref false in
    let gate name ok detail =
      if not ok then begin
        failed := true;
        Printf.printf "GATE FAILED: %s (%s)\n" name detail
      end
    in
    List.iter
      (fun (r : Extensions.routing_run) ->
        let n = r.Extensions.rs_snodes in
        let bound = 2. *. (log (float_of_int n) /. log 2.) in
        gate
          (Printf.sprintf "N=%d p99 hops" n)
          (r.Extensions.rs_hops_p99 <= bound)
          (Printf.sprintf "%.1f > 2 log2 N = %.1f" r.Extensions.rs_hops_p99
             bound);
        gate
          (Printf.sprintf "N=%d window" n)
          (r.Extensions.rs_ops > 0)
          "no ops landed in the measurement window";
        List.iter
          (fun f -> gate (Printf.sprintf "N=%d battery" n) false f)
          (r.Extensions.rs_findings @ r.Extensions.rs_linear))
      runs;
    if not !failed then print_endline "all scaling gates passed";
    Option.iter
      (fun path ->
        let oc = open_out path in
        let module R = Dht_snode.Runtime in
        Printf.fprintf oc
          "{\n  \"benchmark\": \"routing-scaling\",\n  \"seed\": %d,\n\
          \  \"route_cap\": %d,\n  \"ops\": %d,\n  \"keys\": %d,\n\
          \  \"churn\": %b,\n  \"sweep\": [" seed route_cap ops keys
          (not no_churn);
        List.iteri
          (fun i (r : Extensions.routing_run) ->
            Printf.fprintf oc
              "%s\n    {\"snodes\": %d, \"vnodes\": %d, \"level\": %d, \
               \"ops\": %d, \"hops_p50\": %.1f, \"hops_p99\": %.1f, \
               \"hops_max\": %d, \"msgs_per_op\": %.3f, \
               \"cache_entries_max\": %d, \"cache_bytes_max\": %d, \
               \"cache_hit_pct\": %.2f, \"refreshes\": %d, \
               \"sigma_pct\": %.3f, \"findings\": %d}"
              (if i = 0 then "" else ",")
              r.Extensions.rs_snodes r.Extensions.rs_vnodes
              r.Extensions.rs_level r.Extensions.rs_ops
              r.Extensions.rs_hops_p50 r.Extensions.rs_hops_p99
              r.Extensions.rs_hops_max r.Extensions.rs_msgs_per_op
              r.Extensions.rs_cache_entries_max r.Extensions.rs_cache_bytes_max
              (Extensions.routing_hit_pct r)
              r.Extensions.rs_cache.R.rcs_refreshes r.Extensions.rs_sigma
              (List.length r.Extensions.rs_findings
              + List.length r.Extensions.rs_linear))
          runs;
        Printf.fprintf oc "\n  ]\n}\n";
        close_out oc;
        Printf.printf "wrote %s\n" path)
      json;
    finish_telemetry tel;
    if !failed then exit 1
  in
  let sizes =
    Arg.(value & opt (list positive_int) [ 100; 1000; 10000 ]
         & info [ "snodes" ] ~docv:"N,N,..."
             ~doc:"Comma-separated cluster sizes to sweep.")
  in
  let vnodes =
    Arg.(value & opt (some positive_int) None & info [ "vnodes" ] ~docv:"V"
           ~doc:"Vnodes in each cluster (default: one per snode).")
  in
  let route_cap =
    (* Only the sign matters; the floor is the Pmin = 8 partitions of one
       vnode. *)
    Arg.(value & opt (at_least 8) 128 & info [ "route-cap" ] ~docv:"E"
           ~doc:
             "Arms bounded routing (at least 8): a cache keeps the bootstrap \
              placement and its snode's steward regions exactly. The value \
              bounds nothing; the invariant battery bounds each cache's \
              entries outside those regions by the geometry.")
  in
  let max_hops =
    let ceiling = Dht_snode.Route.max_hops_ceiling in
    let hops =
      checked (Printf.sprintf "an integer in [1, %d]" ceiling) int_of_string_opt
        (fun h -> h >= 1 && h <= ceiling)
        Format.pp_print_int
    in
    Arg.(value & opt hops 32 & info [ "max-hops" ] ~docv:"H"
           ~doc:
             (Printf.sprintf
                "Forwarding limit before a routed op backs off and restarts \
                 (at most %d)." ceiling))
  in
  let keys =
    Arg.(value & opt positive_int 1_000_000 & info [ "keys" ] ~docv:"K"
           ~doc:
             "Size of the derived key population the workload samples \
              (keys are computed, never materialized).")
  in
  let ops =
    Arg.(value & opt positive_int 4000 & info [ "ops" ] ~docv:"N"
           ~doc:"Paced data operations per cluster size.")
  in
  let rate =
    Arg.(value & opt positive_float 20000. & info [ "rate" ] ~docv:"OPS"
           ~doc:"Operations per virtual second.")
  in
  let read_fraction =
    Arg.(value & opt probability 0.5 & info [ "read-fraction" ] ~docv:"F"
           ~doc:"Fraction of operations that are gets.")
  in
  let no_churn =
    Arg.(value & flag & info [ "no-churn" ]
           ~doc:
             "Skip the mid-window crash/restart and vnode join (measure \
              steady-state routing only).")
  in
  let json =
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the sweep results to $(docv) as JSON.")
  in
  let term =
    Term.(const run $ telemetry_term $ sizes $ vnodes $ route_cap $ max_hops
          $ keys $ ops $ rate $ read_fraction $ no_churn $ json $ seed_arg)
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "O(log N) prefix-routing scaling sweep: per-snode bounded routing \
          caches (LRU pair-fold eviction) with steward fingers, swept \
          across cluster sizes under mid-window churn. Prints windowed hop \
          percentiles, messages/op, cache occupancy and bytes; exits \
          non-zero if p99 hops exceed 2 log2 N, any cache exceeds its \
          bound, or the safety battery reports a finding.")
    term

let trace_cmd =
  (* Offline critical-path analysis of a --trace --causal JSONL file. *)
  let module Causal = Dht_obsv.Causal in
  let analyze file top tolerance =
    match Causal.load file with
    | Error e ->
        Printf.eprintf "%s: %s\n" file e;
        exit 2
    | Ok t ->
        Printf.printf "== Causal trace: %s ==\n" file;
        let malformed = Causal.malformed t in
        let audit = Causal.audit t in
        let a = Causal.analyze t in
        let mismatches = Causal.sum_mismatches ~tolerance a in
        Printf.printf
          "%d events, %d ops (%d complete, %d unfinished, %d broken), %d \
           wire edges\n"
          (Causal.events t) (Causal.op_count t)
          (List.length a.Causal.complete)
          a.Causal.unfinished a.Causal.broken (Causal.edge_count t);
        let table =
          Table.create ~headers:[ "component"; "p50 ms"; "p99 ms"; "share %" ]
        in
        List.iter
          (fun (c : Causal.component_summary) ->
            Table.add_row table
              [ c.Causal.c_name;
                Printf.sprintf "%.3f" (1000. *. c.Causal.c_p50);
                Printf.sprintf "%.3f" (1000. *. c.Causal.c_p99);
                Printf.sprintf "%.1f" c.Causal.c_share ])
          (Causal.summarize a);
        print_endline "op latency decomposition:";
        Table.print table;
        let shown = ref 0 in
        List.iter
          (fun (az : Causal.analyzed) ->
            if !shown < top then begin
              incr shown;
              let b = az.Causal.a_breakdown in
              Printf.printf
                "#%d %s (trace %d, %s): %.3f ms = queue %.3f + network %.3f \
                 + service %.3f + retransmit %.3f\n"
                !shown az.Causal.a_op az.Causal.a_trace az.Causal.a_outcome
                (1000. *. b.Causal.total) (1000. *. b.Causal.queue)
                (1000. *. b.Causal.network) (1000. *. b.Causal.service)
                (1000. *. b.Causal.retransmit);
              List.iter
                (fun (s : Causal.step) ->
                  Printf.printf
                    "    %d -> %d  %-20s queue %.3f, net %.3f%s\n"
                    s.Causal.s_src s.Causal.s_dst s.Causal.s_tag
                    (1000. *. s.Causal.s_queue)
                    (1000. *. s.Causal.s_network)
                    (if s.Causal.s_attempts > 1 then
                       Printf.sprintf ", retransmit %.3f (%d attempts)"
                         (1000. *. s.Causal.s_retransmit)
                         s.Causal.s_attempts
                     else ""))
                az.Causal.a_path
            end)
          a.Causal.complete;
        if !shown > 0 then
          Printf.printf
            "(%d slowest ops above; per-step times in ms along the critical \
             path)\n"
            !shown;
        let dump label findings =
          List.iter (fun f -> Printf.printf "%s: %s\n" label f) findings
        in
        dump "malformed" malformed;
        dump "audit" audit;
        dump "mismatch" mismatches;
        Printf.printf
          "span trees: %s, decomposition sums: %s (tolerance %g)\n"
          (if malformed = [] && audit = [] && a.Causal.broken = 0 then "ok"
           else "FAILED")
          (if mismatches = [] then "ok" else "FAILED")
          tolerance;
        if
          malformed <> [] || audit <> [] || mismatches <> []
          || a.Causal.broken > 0
        then exit 1
  in
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"TRACE.jsonl"
             ~doc:
               "JSONL trace produced by --trace FILE.jsonl --causal \
                (Chrome-format traces are not analyzable).")
  in
  let top =
    Arg.(value & opt (at_least 0) 5 & info [ "top" ] ~docv:"K"
           ~doc:"Slowest ops whose critical paths are printed.")
  in
  let tolerance =
    Arg.(value & opt non_negative_float 1e-9 & info [ "tolerance" ] ~docv:"T"
           ~doc:
             "Relative tolerance for the decomposition-sums-to-latency \
              gate: a finite number >= 0.")
  in
  let analyze_cmd =
    Cmd.v
      (Cmd.info "analyze"
         ~doc:
           "Rebuild per-op causal trees from a --causal JSONL trace, audit \
            their well-formedness, decompose op latency into queue / \
            network / service / retransmit components (which must sum to \
            the runtime's own measurement) and print the slowest ops' \
            critical paths. Exits non-zero on any malformed span tree or \
            decomposition mismatch.")
      Term.(const analyze $ file $ top $ tolerance)
  in
  Cmd.group
    (Cmd.info "trace" ~doc:"Offline analysis of recorded protocol traces.")
    [ analyze_cmd ]

let all_cmd =
  let run tel runs seed =
    (* A reduced-runs sweep of everything, for a quick end-to-end check. *)
    let curves = Figures.fig4 ~runs ~seed () in
    emit ~title:"Figure 4" ~csv:None ~no_chart:true curves;
    let thetas = Figures.fig5 ~runs ~seed () in
    Printf.printf "fig5: theta minimizes at Vmin = %d\n"
      (Figures.argmin_theta thetas);
    emit ~title:"Figure 6" ~csv:None ~no_chart:true (Figures.fig6 ~runs ~seed ());
    let d = Figures.fig7_fig8 ~runs ~seed () in
    emit ~title:"Figure 7" ~y_label:"groups" ~csv:None ~no_chart:true
      [ d.Figures.greal; d.Figures.gideal ];
    emit ~title:"Figure 8" ~y_label:"sigma(Qg) %" ~csv:None ~no_chart:true
      [ d.Figures.sigma_qg ];
    emit ~title:"Figure 9" ~y_label:"sigma(Qn) %" ~csv:None ~no_chart:true
      (Figures.fig9 ~runs ~seed ());
    finish_telemetry tel
  in
  let term = Term.(const run $ telemetry_term $ runs_arg 10 $ seed_arg) in
  Cmd.v
    (Cmd.info "all" ~doc:"Run every figure with a reduced number of runs.")
    term

let () =
  Dht_core.Log.setup_from_env ();
  let info =
    Cmd.info "dht_sim" ~version:"1.0.0"
      ~doc:
        "Reproduction of 'A cluster oriented model for dynamically balanced \
         DHTs' (IPDPS 2004)."
  in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            fig4_cmd; fig5_cmd; fig6_cmd; fig7_cmd; fig8_cmd; fig9_cmd;
            zones_cmd; ratios_cmd; stability_cmd; cost_cmd; parallel_cmd; hetero_cmd;
            kvload_cmd; churn_cmd; ablation_cmd;
            hetero_compare_cmd; distributed_cmd; chaos_cmd; kv_cmd; range_cmd;
            explore_cmd; coexist_cmd; heat_cmd; balance_cmd; route_cmd;
            trace_cmd;
            all_cmd;
          ]))
