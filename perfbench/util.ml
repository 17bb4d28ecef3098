(* Statistics, process probes and the result line shared by every
   workload. *)

module Json = Repro_util.Json

let now_s = Repro_obs.Clock.now_s

(* Linear interpolation between closest ranks. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "quantile: no samples";
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then a.(n - 1)
  else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

let mean xs =
  if xs = [] then invalid_arg "mean: no samples";
  List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Peak resident set ([VmHWM]) of [pid] ("self" or a process id), MB. *)
let peak_rss_mb pid =
  let kb =
    read_file (Printf.sprintf "/proc/%s/status" pid)
    |> String.split_on_char '\n'
    |> List.find_map (fun l ->
           if String.starts_with ~prefix:"VmHWM:" l then
             Scanf.sscanf l "VmHWM: %d" Option.some
           else None)
  in
  match kb with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> failwith "no VmHWM in /proc status"

(* User + system CPU seconds of another process, from /proc/PID/stat
   (fields 14 and 15, in clock ticks of 1/100 s). *)
let cpu_s_of_pid pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.rindex s ')' + 2 in
  let fields =
    String.split_on_char ' ' (String.sub s after (String.length s - after))
    |> Array.of_list
  in
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. 100.0

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let time f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* The benchmark's one result line: the last line of standard output. *)
let print_result ~correct ~attempted ~failed metrics =
  let metric (name, value, unit) =
    if not (Float.is_finite value) then
      failwith (Printf.sprintf "metric %s is not finite" name);
    (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit) ])
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool correct);
            ("attempted", Json.Num (float_of_int attempted));
            ("failed", Json.Num (float_of_int failed));
            ("metrics", Json.Obj (List.map metric metrics)) ]))

let note fmt = Printf.eprintf (fmt ^^ "\n%!")
