(* The operations of each workload.  A round is the unit every run
   repeats whole: the same operations, for the serve workloads in an
   order (and, for serve-churn, with skew bounds) drawn from the seed. *)

module Flow = Repro_core.Flow
module B = Repro_cts.Benchmarks
module Context = Repro_core.Context
module Rng = Repro_util.Rng
module P = Repro_server.Protocol

type op = { spec : B.spec; alg : Flow.algorithm; kappa : float; warm : bool }

let op ?(kappa = Context.default_params.Context.kappa) ?(warm = false) spec alg =
  { spec; alg; kappa; warm }

let params op = { Context.default_params with Context.kappa = op.kappa }

let request op =
  P.Run
    { opts = { (P.default_opts ~benchmark:op.spec.B.name) with P.kappa = op.kappa };
      algorithm = op.alg;
      warm = op.warm }

let permuted rng xs =
  let a = Array.of_list xs in
  Rng.shuffle rng a;
  Array.to_list a

(* suite-cold: every Table V circuit with ClkWaveMin and ClkSA, in a
   fixed order (a designer's batch; the seed only picks which results
   get the costlier checks). *)
let suite_round _round =
  List.concat_map (fun s -> [ op s Flow.Wavemin; op s Flow.Sa ]) B.all

(* serve-warm: one block per request kind, circuits in a seeded order
   inside each block.  Every warm ClkSA request therefore quenches from
   the ClkWaveMin-f assignment banked earlier in the same round, so its
   reply does not depend on the seed. *)
let warm_round rng _round =
  List.concat_map
    (fun (alg, warm) -> List.map (fun s -> op ~warm s alg) (permuted rng B.all))
    [ (Flow.Initial, false); (Flow.Peakmin, false); (Flow.Wavemin_fast, false);
      (Flow.Sa, true) ]

(* The serve-warm set-up pass: builds every circuit's context in the
   session cache and banks the first warm-start assignment. *)
let warm_pass = List.map (fun s -> op s Flow.Wavemin_fast) B.all

(* serve-churn: ClkPeakMin and ClkWaveMin-f on every circuit twice per
   round: once at a seeded skew bound in [11, 30] ps that no other
   request of the run uses, and once at a bound in [9.5, 10] ps set by
   the round number alone (ClkWaveMin-f 2.5 fs below ClkPeakMin, so the
   two never share a session-cache key).  Every request is a new key. *)
let fixed_kappa alg round =
  10.0 -. (0.005 *. float_of_int (round mod 100))
  -. if alg = Flow.Peakmin then 0.0 else 0.0025

let churn_round rng =
  let used = Hashtbl.create 256 in
  let rec fresh () =
    let k = Float.round (Rng.uniform rng ~lo:11.0 ~hi:30.0 *. 1000.0) /. 1000.0 in
    if Hashtbl.mem used k then fresh ()
    else begin
      Hashtbl.add used k ();
      k
    end
  in
  fun round ->
    let pair kappa_of s =
      let k1 = kappa_of Flow.Peakmin in
      let k2 = kappa_of Flow.Wavemin_fast in
      [ op ~kappa:k1 s Flow.Peakmin; op ~kappa:k2 s Flow.Wavemin_fast ]
    in
    let fixed = List.concat_map (pair (fun alg -> fixed_kappa alg round)) B.all in
    let sweep = List.concat_map (pair (fun _ -> fresh ())) B.all in
    permuted rng (fixed @ sweep)

(* The ops whose golden results make up the quality metrics: a fixed
   list every run completes (round 0, and for serve-churn only its
   seed-independent half). *)
let in_quality_list ~workload ~round op =
  round = 0 && (workload <> "serve-churn" || op.kappa < 11.0)
