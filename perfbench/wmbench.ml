(* wmbench --workload W --seed N --seconds S --trace 0|1 --wavemin EXE

   Runs one workload against the WaveMin library (suite-cold) or a
   private `wavemin serve' daemon (serve-warm, serve-churn) and prints
   one JSON result line last: end-to-end metrics with --trace 0, the
   per-layer metrics of the traced pass with --trace 1. *)

let workloads = [ "suite-cold"; "serve-warm"; "serve-churn" ]

(* Set-ups per run; set-up time is their median. *)
let setups = 5

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and exe = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " length of the timed phase");
      ("--trace", Arg.Set_int trace, " 1: traced per-layer pass instead");
      ("--wavemin", Arg.Set_string exe, " the wavemin executable to serve with") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "wmbench: WaveMin end-to-end benchmark";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("wmbench: unknown workload " ^ !workload);
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* A terminated run still reaps its daemon and removes its files. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 143)))
    [ Sys.sigterm; Sys.sigint ];
  (* Everything runs single-threaded: one job here and in the daemon. *)
  Repro_par.Par.set_jobs 1;
  let dir = Filename.concat ".perfbench" (string_of_int (Unix.getpid ())) in
  if not (Sys.file_exists ".perfbench") then Unix.mkdir ".perfbench" 0o755;
  Unix.mkdir dir 0o755;
  at_exit (fun () ->
      Daemon.kill_all ();
      remove_tree dir;
      try Unix.rmdir ".perfbench" with Unix.Unix_error _ -> ());
  let serve () =
    if !exe = "" then begin
      prerr_endline "wmbench: --wavemin is required for the serve workloads";
      exit 2
    end
  in
  match (!workload, !trace) with
  | "suite-cold", 0 -> Workloads.suite_cold ~seed:!seed ~seconds:!seconds ~setups
  | "suite-cold", _ -> Layers.suite_cold ()
  | w, 0 ->
    serve ();
    Workloads.serve ~exe:!exe ~dir ~workload:w ~seed:!seed ~seconds:!seconds ~setups
  | w, _ ->
    serve ();
    Layers.serve ~exe:!exe ~dir ~workload:w ~seed:!seed
