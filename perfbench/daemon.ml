(* A private `wavemin serve' child: one executor, one job, one client
   connection used in a closed loop.  Socket, access log, drain report
   and flight dumps all live in the run's own directory. *)

module Json = Repro_util.Json
module P = Repro_server.Protocol

type t = {
  pid : int;
  ic : in_channel;
  oc : out_channel;
  stdout_drain : Thread.t;
  mutable next_id : int;
  mutable alive : bool;
}

let access_log dir = Filename.concat dir "access.jsonl"

let live : t list ref = ref []

let kill t =
  if t.alive then begin
    t.alive <- false;
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ())
  end

let kill_all () = List.iter kill !live

(* Start the daemon and return it with the seconds from spawn to the
   readiness banner on its standard output. *)
let spawn ~exe ~dir =
  let sock = Filename.concat dir "d.sock" in
  List.iter
    (fun f -> if Sys.file_exists f then Sys.remove f)
    [ sock; access_log dir ];
  let flight = Filename.concat dir "flight" in
  if not (Sys.file_exists flight) then Unix.mkdir flight 0o755;
  let args =
    [| exe; "serve"; "--address"; "unix:" ^ sock; "--jobs"; "1";
       "--executors"; "1"; "--cache"; "8"; "--cache-shards"; "1";
       "--report"; Filename.concat dir "drain.json";
       "--access-log"; access_log dir; "--flight-dir"; flight;
       "--log-level"; "error" |]
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let err =
    Unix.openfile (Filename.concat dir "daemon.err")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let t0 = Util.now_s () in
  let pid = Unix.create_process exe args null out_w err in
  Unix.close out_w;
  Unix.close null;
  Unix.close err;
  let out = Unix.in_channel_of_descr out_r in
  let banner = try input_line out with End_of_file -> "" in
  let ready_s = Util.now_s () -. t0 in
  if not (String.starts_with ~prefix:"wavemin serve: listening" banner) then begin
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    failwith ("daemon did not become ready: " ^ banner)
  end;
  (* Keep reading its stdout so the daemon never blocks on a full pipe. *)
  let stdout_drain =
    Thread.create
      (fun () ->
        (try
           while true do
             ignore (input_line out)
           done
         with End_of_file | Sys_error _ -> ());
        close_in_noerr out)
      ()
  in
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let t =
    { pid;
      ic = Unix.in_channel_of_descr fd;
      oc = Unix.out_channel_of_descr fd;
      stdout_drain;
      next_id = 0;
      alive = true }
  in
  live := t :: !live;
  (t, ready_s)

(* One closed-loop exchange: send the request, wait for its reply line.
   Returns the request line, the reply line and the round trip in
   seconds. *)
let call t req =
  let id = t.next_id in
  t.next_id <- id + 1;
  let line = P.line (P.request_to_json ~id:(Json.Num (float_of_int id)) req) in
  let t0 = Util.now_s () in
  output_string t.oc line;
  flush t.oc;
  let reply = input_line t.ic in
  (id, line, reply, Util.now_s () -. t0)

let control t req =
  let _, _, reply, _ = call t req in
  match P.parse_response reply with
  | Ok { P.ok = true; body; _ } -> body
  | _ -> failwith ("control request failed: " ^ reply)

let cpu_s t = Util.cpu_s_of_pid t.pid
let peak_rss_mb t = Util.peak_rss_mb (string_of_int t.pid)

(* Graceful drain, then reap the process. *)
let shutdown t =
  ignore (control t P.Shutdown);
  close_out_noerr t.oc;
  close_in_noerr t.ic;
  ignore (Unix.waitpid [] t.pid);
  t.alive <- false;
  Thread.join t.stdout_drain;
  live := List.filter (fun d -> d != t) !live

(* Session-cache counters from a [stats] reply. *)
let session_counters t =
  let stats = control t P.Stats in
  let num path =
    List.fold_left
      (fun j k -> Option.bind j (Json.member k))
      (Some stats) path
    |> Fun.flip Option.bind Json.float_value
    |> Option.value ~default:Float.nan
  in
  [ ("session.hits", num [ "cache"; "hits" ]);
    ("session.misses", num [ "cache"; "misses" ]);
    ("session.evictions", num [ "cache"; "evictions" ]);
    ("session.warm_hits", num [ "cache"; "warm"; "hits" ]) ]
