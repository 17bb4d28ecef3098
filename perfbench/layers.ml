(* The traced pass: each operation is run twice, once through the
   program's own entry point (Flow.run_benchmark, or Handlers.execute
   for the served workloads) and once decomposed into the public call of
   every layer, timed from here.  The two must agree exactly, and with
   the daemon's reply; their wall-time ratio is the tracing overhead. *)

module Flow = Repro_core.Flow
module B = Repro_cts.Benchmarks
module Context = Repro_core.Context
module Golden = Repro_core.Golden
module Zones = Repro_core.Zones
module Noise_table = Repro_core.Noise_table
module Clk_wavemin = Repro_core.Clk_wavemin
module Clk_wavemin_f = Repro_core.Clk_wavemin_f
module Clk_peakmin = Repro_core.Clk_peakmin
module Clk_sa = Repro_core.Clk_sa
module Tree = Repro_clocktree.Tree
module Assignment = Repro_clocktree.Assignment
module Timing = Repro_clocktree.Timing
module Cell = Repro_cell.Cell
module Noise = Repro_powergrid.Noise
module Metrics = Repro_obs.Metrics
module Rng = Repro_util.Rng
module Json = Repro_util.Json
module P = Repro_server.Protocol
module Handlers = Repro_server.Handlers
module Session = Repro_server.Session

let metrics =
  [ ("cts.synthesize_ms", "ms"); ("cts.calls", "count");
    ("context.create_ms", "ms"); ("context.calls", "count");
    ("context.zones", "count"); ("context.noise_candidates", "count");
    ("context.alloc_mw", "Mw");
    ("mosp.solve_ms", "ms"); ("mosp.warburton_solves", "count");
    ("mosp.labels_pruned", "count"); ("mosp.labels_capped", "count");
    ("mosp.capped_solves", "count"); ("mosp.alloc_mw", "Mw");
    ("zonedp.solve_ms", "ms"); ("zonedp.calls", "count");
    ("sa.solve_ms", "ms"); ("sa.moves", "count"); ("sa.accept_ratio", "ratio");
    ("sa.alloc_mw", "Mw");
    ("golden.evaluate_ms", "ms"); ("golden.calls", "count");
    ("golden.alloc_mw", "Mw");
    ("powergrid.noise_ms", "ms"); ("powergrid.solves", "count");
    ("protocol.parse_us", "us"); ("protocol.render_us", "us");
    ("server.handler_ms", "ms"); ("server.queue_wait_ms", "ms");
    ("server.transport_ms", "ms");
    ("session.hits", "count"); ("session.misses", "count");
    ("session.evictions", "count"); ("session.warm_hits", "count");
    ("trace.overhead_pct", "%") ]

(* Totals over the traced round. *)
let totals : (string, float) Hashtbl.t = Hashtbl.create 64
let add k v = Hashtbl.replace totals k (v +. Option.value ~default:0.0 (Hashtbl.find_opt totals k))
let total k = Option.value ~default:0.0 (Hashtbl.find_opt totals k)

(* Time [f] into [ms_key] (and, given [alloc], count its minor-heap
   words into that key in millions). *)
let timed ?alloc ms_key f =
  let w0 = Gc.minor_words () in
  let t0 = Util.now_s () in
  let r = f () in
  let dt = Util.now_s () -. t0 in
  let w1 = Gc.minor_words () in
  add ms_key (dt *. 1000.0);
  Option.iter (fun k -> add k ((w1 -. w0) /. 1e6)) alloc;
  r

let mosp_counters =
  [ ("mosp.warburton_solves", Metrics.counter "warburton.solves");
    ("mosp.labels_pruned", Metrics.counter "warburton.labels_pruned");
    ("mosp.labels_capped", Metrics.counter "warburton.labels_capped") ]

(* One layer-by-layer solve of [alg] on a built context, following
   Flow's fallback chain when a solver raises.  Returns the algorithm
   that produced the assignment, the assignment and the optimizer's
   estimate. *)
let solve ?warm ctx alg =
  let tree = ctx.Context.tree in
  let rec attempt = function
    | [] -> assert false
    | a :: rest -> (
      match
        match a with
        | Flow.Initial -> (Assignment.default tree ~num_modes:1, 0.0)
        | Flow.Wavemin ->
          let before = List.map (fun (k, c) -> (k, Metrics.value c)) mosp_counters in
          let o = timed ~alloc:"mosp.alloc_mw" "mosp.solve_ms" (fun () -> Clk_wavemin.optimize ctx) in
          List.iter2
            (fun (k, c) (_, v0) -> add k (float_of_int (Metrics.value c - v0)))
            mosp_counters before;
          if o.Context.approximate then add "mosp.capped_solves" 1.0;
          (o.Context.assignment, o.Context.predicted_peak_ua)
        | Flow.Peakmin | Flow.Wavemin_fast ->
          add "zonedp.calls" 1.0;
          let o =
            timed "zonedp.solve_ms" (fun () ->
                if a = Flow.Peakmin then Clk_peakmin.optimize ctx
                else Clk_wavemin_f.optimize ctx)
          in
          (o.Context.assignment, o.Context.predicted_peak_ua)
        | Flow.Sa ->
          let o, st =
            timed ~alloc:"sa.alloc_mw" "sa.solve_ms" (fun () ->
                match warm with
                | Some prev -> Clk_sa.optimize_stats ~config:Clk_sa.warm_config ~warm:prev ctx
                | None -> Clk_sa.optimize_stats ctx)
          in
          add "sa.moves" (float_of_int st.Clk_sa.proposed);
          add "sa.accepted" (float_of_int st.Clk_sa.accepted);
          (o.Context.assignment, o.Context.predicted_peak_ua)
      with
      | asg, predicted -> (a, asg, predicted)
      | exception _ when rest <> [] -> attempt rest)
  in
  attempt (Flow.fallback_chain alg)

let build_context ~params tree =
  let ctx =
    timed ~alloc:"context.alloc_mw" "context.create_ms" (fun () ->
        Context.create ~params ~env:(Timing.nominal ()) tree ~cells:(Flow.leaf_library ()))
  in
  add "context.calls" 1.0;
  add "context.zones" (float_of_int (Zones.num_zones ctx.Context.zones));
  add "context.noise_candidates"
    (float_of_int
       (Array.fold_left
          (fun n t -> Array.fold_left (fun n row -> n + Array.length row) n t.Noise_table.noise)
          0 ctx.Context.tables));
  ctx

let synthesize spec =
  add "cts.calls" 1.0;
  timed "cts.synthesize_ms" (fun () -> B.synthesize spec)

let golden tree asg =
  add "golden.calls" 1.0;
  timed ~alloc:"golden.alloc_mw" "golden.evaluate_ms" (fun () ->
      Golden.evaluate tree asg (Timing.nominal ()))

(* The power-grid part of a golden evaluation on its own: the same node
   injections and sample instants, handed to Noise.evaluate. *)
let powergrid tree asg (expected : Golden.metrics) =
  let inj =
    Array.map
      (fun ((nd : Tree.node), idd, iss) ->
        let at w = { Noise.x = nd.Tree.x; y = nd.Tree.y; waveform = w } in
        (at idd, at iss))
      (Checks.node_rails tree asg)
  in
  let vdd = Array.to_list (Array.map fst inj) and gnd = Array.to_list (Array.map snd inj) in
  let times = Noise.default_times (vdd @ gnd) ~count:48 in
  let grid = Golden.default_grid tree in
  let report = timed "powergrid.noise_ms" (fun () -> Noise.evaluate grid ~vdd ~gnd ~times) in
  add "powergrid.solves" (float_of_int (2 * Array.length times));
  report.Noise.vdd_noise_mv = expected.Golden.vdd_noise_mv
  && report.Noise.gnd_noise_mv = expected.Golden.gnd_noise_mv

let same_assignment tree a b =
  Array.for_all
    (fun nd ->
      let id = nd.Tree.id in
      Cell.equal (Assignment.cell a id) (Assignment.cell b id)
      && Assignment.extra_delay a ~mode:0 id = Assignment.extra_delay b ~mode:0 id)
    (Tree.nodes tree)

let leaf_inverters tree asg =
  Assignment.count_leaves asg tree ~pred:(fun c -> Cell.polarity c = Cell.Negative)

let mismatches = ref []
let expect what ok = if not ok then mismatches := what :: !mismatches

(* Like the timed runs, a traced round ends with its grid-solve check. *)
let report ~attempted ~failed ~traced_s ~untraced_s =
  let grid =
    Workloads.grid_ops ~rounds:1 (List.map (fun s -> (s.B.name, B.synthesize s)) B.all)
  in
  let grid_failed = List.length (List.filter Result.is_error grid) in
  List.iter (function Error e -> Util.note "grid property broken: %s" e | Ok () -> ()) grid;
  let accepted = total "sa.accepted" and moves = total "sa.moves" in
  Hashtbl.replace totals "sa.accept_ratio" (if moves > 0.0 then accepted /. moves else 0.0);
  Hashtbl.replace totals "trace.overhead_pct" ((traced_s /. untraced_s -. 1.0) *. 100.0);
  List.iter (fun m -> Util.note "mismatch: %s" m) (List.rev !mismatches);
  Util.print_result ~correct:(!mismatches = []) ~attempted:(attempted + 1)
    ~failed:(failed + grid_failed)
    (List.map (fun (k, unit) -> (k, total k, unit)) metrics)

(* ---- suite-cold ---------------------------------------------------- *)

let suite_cold () =
  let ops = Ops.suite_round 0 in
  let traced_s = ref 0.0 and untraced_s = ref 0.0 in
  let failed = ref 0 in
  List.iter
    (fun (op : Ops.op) ->
      let params = Ops.params op in
      let reference, dt = Util.time (fun () -> Flow.run_benchmark ~params op.Ops.spec op.Ops.alg) in
      untraced_s := !untraced_s +. dt;
      let (tree, alg, asg, predicted, m), dt =
        Util.time (fun () ->
            let tree = synthesize op.Ops.spec in
            let ctx = build_context ~params tree in
            let alg, asg, predicted = solve ctx op.Ops.alg in
            (tree, alg, asg, predicted, golden tree asg))
      in
      traced_s := !traced_s +. dt;
      let what = op.Ops.spec.B.name ^ " " ^ Flow.algorithm_name op.Ops.alg in
      if alg <> op.Ops.alg then incr failed;
      expect (what ^ ": algorithm") (alg = reference.Flow.algorithm);
      expect (what ^ ": assignment") (same_assignment tree asg reference.Flow.assignment);
      expect (what ^ ": golden metrics") (m = reference.Flow.metrics);
      expect (what ^ ": estimate") (predicted = reference.Flow.predicted_peak_ua);
      expect (what ^ ": power grid") (powergrid tree asg m))
    ops;
  report ~attempted:(List.length ops) ~failed:!failed ~traced_s:!traced_s
    ~untraced_s:!untraced_s

(* ---- serve-warm / serve-churn --------------------------------------- *)

(* The access-log lines of the given request ids. *)
let access_entries dir ids =
  In_channel.with_open_text (Daemon.access_log dir) In_channel.input_lines
  |> List.filter_map (fun l ->
         match Json.of_string l with
         | Ok j -> (
           match Option.bind (Json.member "id" j) Json.int_value with
           | Some id when List.mem id ids -> Some (id, j)
           | _ -> None)
         | Error _ -> None)

let serve ~exe ~dir ~workload ~seed =
  let ops = Workloads.next_round ~workload (Rng.create ~seed) 0 in
  (* In process: the same requests through Handlers.execute on a fresh
     session (untraced), and decomposed layer by layer (traced). *)
  let session = Session.create ~capacity:8 ~shards:1 () in
  let cached = Hashtbl.create 8 and banked = Hashtbl.create 8 in
  if workload = "serve-warm" then
    List.iter
      (fun (op : Ops.op) ->
        ignore (Handlers.execute session (Ops.request op));
        let tree = B.synthesize op.Ops.spec in
        let ctx = Context.create ~params:(Ops.params op) ~env:(Timing.nominal ()) tree
            ~cells:(Flow.leaf_library ()) in
        let _, asg, _ = solve ctx op.Ops.alg in
        Hashtbl.replace cached op.Ops.spec.B.name ctx;
        Hashtbl.replace banked op.Ops.spec.B.name asg)
      Ops.warm_pass;
  (* Layer totals so far belong to the set-up pass. *)
  Hashtbl.reset totals;
  (* Over the daemon: one round, with the server's own timings from the
     access log and the session counters around it. *)
  let d, _ = Workloads.start ~exe ~dir ~workload in
  let before = Daemon.session_counters d in
  let served =
    List.map
      (fun op ->
        let id, line, reply, rtt = Daemon.call d (Ops.request op) in
        (op, id, line, reply, rtt))
      ops
  in
  let after = Daemon.session_counters d in
  Daemon.shutdown d;
  List.iter2 (fun (k, b) (_, a) -> add k (a -. b)) before after;
  let log = access_entries dir (List.map (fun (_, id, _, _, _) -> id) served) in
  List.iter
    (fun (_, id, _, _, rtt) ->
      match List.assoc_opt id log with
      | None -> expect (Printf.sprintf "access-log line of request %d" id) false
      | Some j ->
        let num k = Option.value ~default:Float.nan (Option.bind (Json.member k j) Json.float_value) in
        add "server.handler_ms" (num "wall_ms");
        add "server.queue_wait_ms" (num "queue_wait_ms");
        add "server.transport_ms" ((rtt *. 1000.0) -. num "total_ms"))
    served;
  let traced_s = ref 0.0 and untraced_s = ref 0.0 in
  let failed = ref 0 in
  List.iter
    (fun ((op : Ops.op), id, line, reply, _) ->
      let name = op.Ops.spec.B.name in
      let what = Printf.sprintf "%s %s kappa=%g" name (Flow.algorithm_name op.Ops.alg) op.Ops.kappa in
      let untraced, dt = Util.time (fun () -> Handlers.execute session (Ops.request op)) in
      untraced_s := !untraced_s +. dt;
      expect (what ^ ": in-process bytes")
        (match untraced with
         | Ok j -> P.line (P.ok_response ~id:(Json.Num (float_of_int id)) j) = reply ^ "\n"
         | Error _ -> false);
      let env = timed "protocol.parse_us" (fun () -> P.parse_request line) in
      expect (what ^ ": request parses") (Result.is_ok env.P.payload);
      let (tree, alg, asg, predicted, m), dt =
        Util.time (fun () ->
            let ctx =
              match Hashtbl.find_opt cached name with
              | Some ctx -> ctx
              | None -> build_context ~params:(Ops.params op) (synthesize op.Ops.spec)
            in
            let warm = if op.Ops.warm then Hashtbl.find_opt banked name else None in
            let alg, asg, predicted = solve ?warm ctx op.Ops.alg in
            let tree = ctx.Context.tree in
            (tree, alg, asg, predicted, golden tree asg))
      in
      traced_s := !traced_s +. dt;
      if alg <> Flow.Initial then Hashtbl.replace banked name asg;
      if alg <> op.Ops.alg then incr failed;
      expect (what ^ ": power grid") (powergrid tree asg m);
      match Json.of_string reply with
      | Error e -> expect (what ^ ": reply parses: " ^ e) false
      | Ok j ->
        ignore (timed "protocol.render_us" (fun () -> P.line j));
        let get path conv =
          List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path
          |> Fun.flip Option.bind conv
        in
        let q k = get [ "result"; "quality"; k ] Json.float_value in
        expect (what ^ ": served algorithm")
          (get [ "result"; "algorithm" ] Json.string_value = Some (Flow.algorithm_name alg));
        expect (what ^ ": served golden metrics")
          (q "peak_current_ma" = Some m.Golden.peak_current_ma
           && q "vdd_noise_mv" = Some m.Golden.vdd_noise_mv
           && q "gnd_noise_mv" = Some m.Golden.gnd_noise_mv
           && q "skew_ps" = Some m.Golden.skew_ps);
        expect (what ^ ": served estimate") (q "predicted_peak_ua" = Some predicted);
        expect (what ^ ": served inverter count")
          (q "num_leaf_inverters" = Some (float_of_int (leaf_inverters tree asg))))
    served;
  (* Microseconds for the protocol layer. *)
  List.iter
    (fun k -> Hashtbl.replace totals k (total k *. 1000.0))
    [ "protocol.parse_us"; "protocol.render_us" ];
  report ~attempted:(List.length ops) ~failed:!failed ~traced_s:!traced_s
    ~untraced_s:!untraced_s
