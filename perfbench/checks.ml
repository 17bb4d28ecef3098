(* Properties every result must have, whatever today's numbers are.
   Each check returns [Ok ()] or [Error reason]. *)

module Tree = Repro_clocktree.Tree
module Assignment = Repro_clocktree.Assignment
module Timing = Repro_clocktree.Timing
module Cell = Repro_cell.Cell
module Electrical = Repro_cell.Electrical
module Pwl = Repro_waveform.Pwl
module Grid = Repro_powergrid.Grid
module Rng = Repro_util.Rng
module Flow = Repro_core.Flow
module Golden = Repro_core.Golden
module Waveforms = Repro_core.Waveforms

let fail fmt = Printf.ksprintf (fun s -> Error s) fmt
let ( let* ) = Result.bind

(* Golden skew within the bound, and no worse a peak than the tree's
   unmodified (Initial) assignment. *)
let quality ~kappa ~initial_peak_ma (m : Golden.metrics) =
  if not (m.Golden.skew_ps <= kappa) then
    fail "skew %.4f ps exceeds kappa %.4f ps" m.Golden.skew_ps kappa
  else if not (m.Golden.peak_current_ma <= initial_peak_ma) then
    fail "peak %.4f mA above the Initial peak %.4f mA"
      m.Golden.peak_current_ma initial_peak_ma
  else Ok ()

let library = Flow.leaf_library ()

(* Every leaf holds one of the four library cells, and the reported
   inverter count is the number of INV leaves. *)
let leaf_cells tree asg ~num_leaf_inverters =
  let leaves = Assignment.leaf_cells asg tree in
  match
    Array.find_opt
      (fun (_, c) -> not (List.exists (Cell.equal c) library))
      leaves
  with
  | Some (id, c) -> fail "leaf %d holds %s, not a library cell" id c.Cell.name
  | None ->
    let invs =
      Array.fold_left
        (fun n (_, c) -> if c.Cell.kind = Cell.Inverter then n + 1 else n)
        0 leaves
    in
    if invs = num_leaf_inverters then Ok ()
    else fail "%d INV leaves but num_leaf_inverters = %d" invs num_leaf_inverters

(* Every node's full-period current on each rail, as the golden
   evaluator builds it: the rising-edge pulse plus the falling-edge pulse
   half a period later. *)
let node_rails tree asg =
  let env = Timing.nominal () in
  let half = Golden.default_period /. 2.0 in
  let rising = Timing.analyze tree asg env ~edge:Electrical.Rising in
  let falling = Timing.analyze tree asg env ~edge:Electrical.Falling in
  Array.map
    (fun nd ->
      let r = Waveforms.node_currents tree asg env rising nd.Tree.id in
      let f = Waveforms.node_currents tree asg env falling nd.Tree.id in
      ( nd,
        Pwl.add r.Electrical.idd (Pwl.shift f.Electrical.idd half),
        Pwl.add r.Electrical.iss (Pwl.shift f.Electrical.iss half) ))
    (Tree.nodes tree)

(* The golden rail peak against the summed node currents sampled on a
   dense grid of [points] instants.  Between two samples h apart the sum
   can rise above the sampled maximum by at most L*h/2, L being the sum
   of the nodes' steepest slopes, so the peak must lie in
   [sampled max, sampled max + L*h/2]. *)
let rail_peak ?(points = 4000) tree asg ~peak_ma =
  let rails = Array.map (fun (_, idd, iss) -> (idd, iss)) (node_rails tree asg) in
  let waves = Array.to_list rails |> List.concat_map (fun (a, b) -> [ a; b ]) in
  let lo, hi =
    List.fold_left
      (fun (lo, hi) w ->
        match Pwl.support w with
        | Some (a, b) -> (Float.min lo a, Float.max hi b)
        | None -> (lo, hi))
      (Float.infinity, Float.neg_infinity) waves
  in
  let h = (hi -. lo) /. float_of_int (points - 1) in
  let dense rail =
    let best = ref 0.0 in
    for k = 0 to points - 1 do
      let t = lo +. (h *. float_of_int k) in
      let s = Array.fold_left (fun acc w -> acc +. Pwl.eval (rail w) t) 0.0 rails in
      if s > !best then best := s
    done;
    !best
  in
  (* Steepest slope of a waveform; a nonzero end value is a jump, which
     no Lipschitz bound covers, so it is added in full. *)
  let slope_bound w =
    let pts = Array.of_list (Pwl.breakpoints w) in
    let n = Array.length pts in
    let s = ref 0.0 in
    for i = 0 to n - 2 do
      let (t0, v0) = pts.(i) and (t1, v1) = pts.(i + 1) in
      s := Float.max !s (Float.abs (v1 -. v0) /. (t1 -. t0))
    done;
    let jumps = if n = 0 then 0.0 else Float.abs (snd pts.(0)) +. Float.abs (snd pts.(n - 1)) in
    (!s *. h /. 2.0) +. jumps
  in
  let sampled = Float.max (dense fst) (dense snd) /. 1000.0 in
  let slack =
    Float.max
      (Array.fold_left (fun a (w, _) -> a +. slope_bound w) 0.0 rails)
      (Array.fold_left (fun a (_, w) -> a +. slope_bound w) 0.0 rails)
    /. 1000.0
  in
  let tol = 1e-9 *. Float.abs peak_ma in
  if peak_ma < sampled -. tol then
    fail "rail peak %.6f mA below the sampled sum %.6f mA" peak_ma sampled
  else if peak_ma > sampled +. slack +. tol then
    fail "rail peak %.6f mA above the sampled sum %.6f mA + bound %.6f"
      peak_ma sampled slack
  else Ok ()

(* Linearity properties of the power-grid solve on one mesh:
   superposition, non-negativity and reciprocity, each to 1e-9
   relative.  Every broken property is listed. *)
let grid_solve rng grid =
  let n = Grid.num_nodes grid in
  let free =
    List.filter (fun i -> not (Grid.is_pad grid i)) (List.init n Fun.id)
    |> Array.of_list
  in
  let solve inj = Grid.solve grid ~injection:inj in
  let amax v = Array.fold_left (fun a x -> Float.max a (Float.abs x)) 0.0 v in
  let random () = Array.init n (fun _ -> Rng.float rng ~bound:100.0) in
  let a = random () and b = random () in
  let va = solve a and vb = solve b in
  let vab = solve (Array.map2 ( +. ) a b) in
  let superposition =
    let residual = amax (Array.mapi (fun i x -> x -. va.(i) -. vb.(i)) vab) in
    if residual <= 1e-9 *. amax vab then []
    else [ Printf.sprintf "superposition off by %.3g relative" (residual /. amax vab) ]
  in
  let non_negative =
    let low = Array.fold_left Float.min 0.0 va in
    if low >= -1e-9 *. amax va then []
    else [ Printf.sprintf "drop %.3g under non-negative injection" low ]
  in
  let unit i = Array.init n (fun k -> if k = i then 1.0 else 0.0) in
  let reciprocity =
    List.init 4 (fun _ ->
        let i = free.(Rng.int rng ~bound:(Array.length free)) in
        let j = free.(Rng.int rng ~bound:(Array.length free)) in
        let vij = (solve (unit j)).(i) and vji = (solve (unit i)).(j) in
        let scale = Float.max (Float.abs vij) (Float.abs vji) in
        if Float.abs (vij -. vji) <= 1e-9 *. scale then None
        else
          Some
            (Printf.sprintf "reciprocity v%d(e%d) vs v%d(e%d) off by %.3g relative"
               i j j i (Float.abs (vij -. vji) /. scale)))
    |> List.filter_map Fun.id
  in
  match superposition @ non_negative @ reciprocity with
  | [] -> Ok ()
  | errs -> Error (String.concat "; " errs)
