(* The timed runs: set-up (median of several), then whole rounds of the
   workload's operations for about [seconds], then the property checks
   on what came back. *)

module Flow = Repro_core.Flow
module B = Repro_cts.Benchmarks
module Golden = Repro_core.Golden
module Assignment = Repro_clocktree.Assignment
module Rng = Repro_util.Rng
module Json = Repro_util.Json
module P = Repro_server.Protocol
module Handlers = Repro_server.Handlers
module Session = Repro_server.Session

type record = {
  op : Ops.op;
  round : int;
  latency_s : float;
  verdict : (unit, string) result;
  quality : Golden.metrics option;  (** The golden result that was served. *)
}

let ( let* ) = Result.bind

(* The circuits' CTS trees and their Initial golden peaks: the reference
   the optimized peaks are checked against. *)
let references () =
  List.map
    (fun spec ->
      let tree = B.synthesize spec in
      let init = Flow.run_tree ~name:spec.B.name tree Flow.Initial in
      (spec.B.name, (tree, init.Flow.metrics.Golden.peak_current_ma)))
    B.all

let tree_of refs (op : Ops.op) = fst (List.assoc op.Ops.spec.B.name refs)
let initial_peak refs (op : Ops.op) = snd (List.assoc op.Ops.spec.B.name refs)

(* Run the whole number of rounds that comes closest to [seconds]: a
   new round starts only while at least half a round's mean time is
   left.  [exec] performs one operation and returns its record. *)
let rounds ~seconds ~next_round exec =
  let t0 = Util.now_s () in
  let records = ref [] in
  let durations = ref [] in
  let rec loop round =
    let elapsed = Util.now_s () -. t0 in
    let half = if round = 0 then 0.0 else elapsed /. float_of_int round /. 2.0 in
    if round = 0 || elapsed +. half < seconds then begin
      let r0 = Util.now_s () in
      List.iter (fun op -> records := exec round op :: !records) (next_round round);
      durations := (Util.now_s () -. r0) :: !durations;
      loop (round + 1)
    end
  in
  loop 0;
  Util.note "rounds (s): %s"
    (String.concat " " (List.rev_map (Printf.sprintf "%.2f") !durations));
  (List.rev !records, Util.now_s () -. t0)

let check_result ~refs (op : Ops.op) ~algorithm ~degraded (m : Golden.metrics) =
  if degraded then Error "degraded: fell back down the solver chain"
  else if algorithm <> Flow.algorithm_name op.Ops.alg then
    Error ("served " ^ algorithm)
  else if op.Ops.alg = Flow.Initial then
    if m.Golden.peak_current_ma = initial_peak refs op then Ok ()
    else Error "Initial peak differs from the reference"
  else Checks.quality ~kappa:op.Ops.kappa ~initial_peak_ma:(initial_peak refs op) m

(* The grid-solve properties, one check per round: round [r] takes the
   default mesh of circuit [r mod 7] and injections drawn from [r]
   alone, so every run checks the same meshes with the same inputs. *)
let grid_ops ~rounds trees =
  List.init rounds (fun r ->
      let name, tree = List.nth trees (r mod List.length trees) in
      Result.map_error
        (fun e -> name ^ ": " ^ e)
        (Checks.grid_solve (Rng.create ~seed:(7919 + r)) (Golden.default_grid tree)))

let summarize ~workload ~setup_s ~wall_s ~cpu_s ~rss_mb ~refs records =
  let ops = List.length records in
  let rounds = 1 + List.fold_left (fun m r -> max m r.round) 0 records in
  let grid_failures =
    grid_ops ~rounds (List.map (fun (n, (t, _)) -> (n, t)) refs)
    |> List.filter_map (function Ok () -> None | Error e -> Some e)
  in
  let failures =
    List.filter_map
      (fun r ->
        match r.verdict with
        | Ok () -> None
        | Error e ->
          Some (Printf.sprintf "%s %s kappa=%g: %s" r.op.Ops.spec.B.name
                  (Flow.algorithm_name r.op.Ops.alg) r.op.Ops.kappa e))
      records
  in
  List.iter (fun e -> Util.note "failed: %s" e) (List.sort_uniq compare failures);
  List.iter (fun e -> Util.note "grid property broken: %s" e)
    (List.sort_uniq compare grid_failures);
  let failed = List.length failures in
  let attempted = ops + rounds and all_failed = failed + List.length grid_failures in
  let lat = List.map (fun r -> r.latency_s *. 1000.0) records in
  let quality =
    List.filter_map
      (fun r ->
        if Ops.in_quality_list ~workload ~round:r.round r.op then r.quality else None)
      records
  in
  let expected_quality =
    List.length (List.filter (fun r -> Ops.in_quality_list ~workload ~round:r.round r.op) records)
  in
  let correct = List.length quality = expected_quality in
  let q f = if quality = [] then Float.nan else Util.mean (List.map f quality) in
  Util.print_result ~correct ~attempted ~failed:all_failed
    [ ("setup_s", setup_s, "s");
      ("throughput_ops_s", float_of_int (ops - failed) /. wall_s, "ops/s");
      ("latency_p50_ms", Util.median lat, "ms");
      ("latency_p90_ms", Util.quantile lat 0.9, "ms");
      ("cpu_ms_per_op", cpu_s *. 1000.0 /. float_of_int ops, "ms");
      ("rss_peak_mb", rss_mb, "MB");
      ("peak_current_ma", q (fun m -> m.Golden.peak_current_ma), "mA");
      ( "supply_noise_mv",
        q (fun m -> m.Golden.vdd_noise_mv +. m.Golden.gnd_noise_mv),
        "mV" ) ]

(* Draw [k] distinct records. *)
let sample rng k records =
  let a = Array.of_list records in
  Rng.shuffle rng a;
  Array.to_list (Array.sub a 0 (min k (Array.length a)))

(* ---- suite-cold ---------------------------------------------------- *)

let suite_cold ~seed ~seconds ~setups =
  let check_rng = Rng.create ~seed:(seed + 1_000_003) in
  (* Set-up: the cell library, the seven CTS trees and their Initial
     golden references. *)
  let setups = List.init setups (fun _ -> Util.time references) in
  let refs = fst (List.hd setups) and setup_times = List.map snd setups in
  let runs = Hashtbl.create 64 in
  let cpu0 = Util.self_cpu_s () in
  let exec round (op : Ops.op) =
    let res, latency_s =
      Util.time (fun () ->
          match Flow.run_benchmark ~params:(Ops.params op) op.Ops.spec op.Ops.alg with
          | run -> Ok run
          | exception e -> Error (Printexc.to_string e))
    in
    let verdict, quality =
      match res with
      | Error e -> (Error e, None)
      | Ok run ->
        if round = 0 then Hashtbl.replace runs (op.Ops.spec.B.name, op.Ops.alg) run;
        let m = run.Flow.metrics in
        ( (let* () =
             check_result ~refs op ~algorithm:(Flow.algorithm_name run.Flow.algorithm)
               ~degraded:(run.Flow.degradations <> []) m
           in
           Checks.leaf_cells (tree_of refs op) run.Flow.assignment
             ~num_leaf_inverters:run.Flow.num_leaf_inverters),
          Some m )
    in
    { op; round; latency_s; verdict; quality }
  in
  let records, wall_s = rounds ~seconds ~next_round:Ops.suite_round exec in
  let cpu_s = Util.self_cpu_s () -. cpu0 in
  let rss_mb = Util.peak_rss_mb "self" in
  (* The dense-grid rail check is costly: run it on a seeded sample. *)
  let sampled =
    sample check_rng 3 (List.filter (fun r -> r.round = 0 && Result.is_ok r.verdict) records)
  in
  let records =
    List.map
      (fun r ->
        if not (List.memq r sampled) then r
        else
          let run = Hashtbl.find runs (r.op.Ops.spec.B.name, r.op.Ops.alg) in
          { r with
            verdict =
              Checks.rail_peak (tree_of refs r.op) run.Flow.assignment
                ~peak_ma:run.Flow.metrics.Golden.peak_current_ma })
      records
  in
  summarize ~workload:"suite-cold" ~setup_s:(Util.median setup_times) ~wall_s
    ~cpu_s ~rss_mb ~refs records

(* ---- serve-warm / serve-churn --------------------------------------- *)

type reply = {
  algorithm : string;
  degraded : bool;
  metrics : Golden.metrics;
  num_leaf_inverters : int;
}

let parse_reply line =
  match P.parse_response line with
  | Error e -> Error ("unparsable reply: " ^ e)
  | Ok { P.ok = false; body; _ } -> Error ("error reply: " ^ Json.to_string body)
  | Ok { P.ok = true; body; _ } -> (
    let get path conv =
      List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some body) path
      |> Fun.flip Option.bind conv
    in
    let num k = get [ "quality"; k ] Json.float_value in
    match
      ( get [ "algorithm" ] Json.string_value,
        get [ "degradations" ] Json.list_value,
        num "peak_current_ma", num "vdd_noise_mv", num "gnd_noise_mv",
        num "skew_ps", num "num_leaf_inverters" )
    with
    | Some algorithm, Some degs, Some peak, Some vdd, Some gnd, Some skew, Some inv ->
      Ok
        { algorithm;
          degraded = degs <> [];
          metrics =
            { Golden.peak_current_ma = peak; vdd_noise_mv = vdd;
              gnd_noise_mv = gnd; skew_ps = skew };
          num_leaf_inverters = int_of_float inv }
    | _ -> Error ("reply lacks a field: " ^ line))

type served = { sop : Ops.op; sround : int; id : int; reply_line : string }

(* Start the daemon; for serve-warm also warm its cache.  Returns the
   daemon and its set-up seconds. *)
let start ~exe ~dir ~workload =
  let d, ready_s = Daemon.spawn ~exe ~dir in
  if workload <> "serve-warm" then (d, ready_s)
  else
    let (), warm_s =
      Util.time (fun () ->
          List.iter
            (fun op ->
              let _, _, reply, _ = Daemon.call d (Ops.request op) in
              match parse_reply reply with
              | Ok _ -> ()
              | Error e -> failwith ("warm-up request failed: " ^ e))
            Ops.warm_pass)
    in
    (d, ready_s +. warm_s)

let next_round ~workload rng =
  if workload = "serve-warm" then Ops.warm_round rng else Ops.churn_round rng

(* Replay served requests on a fresh in-process session and compare the
   bytes; then check the assignment behind the reply.  A warm ClkSA
   request is preceded by the ClkWaveMin-f request of its round that
   banked its starting point. *)
let replay_check ~refs ~served (s : served) =
  let session = Session.create ~capacity:8 ~shards:1 () in
  let execute (s : served) =
    let expected =
      match Handlers.execute session (Ops.request s.sop) with
      | Ok j -> P.ok_response ~id:(Json.Num (float_of_int s.id)) j
      | Error (e, degs) ->
        P.error_response ~id:(Json.Num (float_of_int s.id))
          ~degradations:(List.map Handlers.degradation_json degs) e
    in
    if P.line expected = s.reply_line ^ "\n" then Ok ()
    else Error "served bytes differ from an in-process execution"
  in
  let* () =
    if s.sop.Ops.warm then
      match
        List.find_opt
          (fun p ->
            p.sround = s.sround && p.sop.Ops.alg = Flow.Wavemin_fast
            && p.sop.Ops.spec == s.sop.Ops.spec)
          served
      with
      | Some p -> execute p
      | None -> Error "no banked predecessor for a warm request"
    else Ok ()
  in
  let* () = execute s in
  let* r = parse_reply s.reply_line in
  let tree = tree_of refs s.sop in
  let asg =
    if r.algorithm = Flow.algorithm_name Flow.Initial then
      Some (Assignment.default tree ~num_modes:1)
    else
      Option.map snd
        (Session.warm_hint session
           ~base:(Session.base_key ~spec:s.sop.Ops.spec ~library:None))
  in
  match asg with
  | None -> Error "no assignment banked for a solver reply"
  | Some asg ->
    let* () = Checks.leaf_cells tree asg ~num_leaf_inverters:r.num_leaf_inverters in
    Checks.rail_peak tree asg ~peak_ma:r.metrics.Golden.peak_current_ma

let serve ~exe ~dir ~workload ~seed ~seconds ~setups =
  let rng = Rng.create ~seed in
  let check_rng = Rng.create ~seed:(seed + 1_000_003) in
  let refs = references () in
  let setup_times = ref [] in
  let rec boot k =
    let d, s = start ~exe ~dir ~workload in
    setup_times := s :: !setup_times;
    if k > 1 then begin
      Daemon.shutdown d;
      boot (k - 1)
    end
    else d
  in
  let d = boot setups in
  let served = ref [] in
  let cpu0 = Daemon.cpu_s d in
  let exec round op =
    let id, _, reply_line, latency_s = Daemon.call d (Ops.request op) in
    served := { sop = op; sround = round; id; reply_line } :: !served;
    let verdict, quality =
      match parse_reply reply_line with
      | Error e -> (Error e, None)
      | Ok r ->
        ( check_result ~refs op ~algorithm:r.algorithm ~degraded:r.degraded r.metrics,
          Some r.metrics )
    in
    { op; round; latency_s; verdict; quality }
  in
  let records, wall_s = rounds ~seconds ~next_round:(next_round ~workload rng) exec in
  let cpu_s = Daemon.cpu_s d -. cpu0 in
  let rss_mb = Daemon.peak_rss_mb d in
  Daemon.shutdown d;
  let served = List.rev !served in
  let sampled = sample check_rng 3 (List.combine records served) in
  let records =
    List.map
      (fun r ->
        match List.assq_opt r sampled with
        | Some s when Result.is_ok r.verdict ->
          { r with verdict = replay_check ~refs ~served s }
        | _ -> r)
      records
  in
  summarize ~workload ~setup_s:(Util.median !setup_times) ~wall_s ~cpu_s ~rss_mb
    ~refs records
