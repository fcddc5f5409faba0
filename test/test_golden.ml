(* Golden outputs of the sequential solver stack. Each row pins what a
   default-parameter run produces bit for bit, so a refactor of the
   branch & bound engine, the cut loop or the remap pipeline that is
   meant to be behaviour-preserving has to keep every value below.
   A deliberate behaviour change re-pins the rows and says why.

   Remap rows: an unbounded [Remap.solve] at default params per design
   and mode — the digest of the serialised mapping, the producer rung
   and the accepted ST_target in hexadecimal float notation. B19 and
   B5 are in the set because their searches actually branch or take
   heuristic incumbents. B11 and B20 (freeze only) are 8x8 designs
   whose Step-1 re-solves put heavy traffic through the warm dual
   repair.

   Fallback rows: the same solve with a fault class armed on every LP,
   so the answer comes from the LP-free packer (every LP forged
   infeasible) or is the baseline (every LP raises).

   MILP rows: objective and tree counters of proofs to optimality —
   the structured instance in test_milp.ml with cuts and heuristics
   on, and a knapsack that builds a real tree. The LP-iteration
   counts measure work, not results: a change that removes work
   (such as the dual repair's cycle stop) re-pins them, while the
   objectives, node and cut counts stay. *)

open Agingfp_cgrra
module Expr = Agingfp_lp.Expr
module Model = Agingfp_lp.Model
module Simplex = Agingfp_lp.Simplex
module Milp = Agingfp_lp.Milp
module Cuts = Agingfp_lp.Cuts
module Heuristics = Agingfp_lp.Heuristics
module Faults = Agingfp_lp.Faults
module Placer = Agingfp_place.Placer
module Rotation = Agingfp_floorplan.Rotation
module Remap = Agingfp_floorplan.Remap

let design_of name =
  if name = "tiny" then Benchmarks.tiny ()
  else Benchmarks.generate (Option.get (Benchmarks.find name))

let row label (r : Remap.result) =
  Printf.sprintf "%s: %s %s %h" label
    (Digest.to_hex (Digest.string (Serial.mapping_to_string r.Remap.mapping)))
    (Remap.rung_to_string r.Remap.rung)
    r.Remap.st_target

let remap_row name mode =
  let design = design_of name in
  let baseline = Placer.aging_unaware design in
  row
    (Printf.sprintf "%s %s" name
       (match mode with Rotation.Freeze -> "freeze" | Rotation.Rotate -> "rotate"))
    (Remap.solve ~mode design baseline)

let expected_remap =
  [
    "tiny freeze: 4ba9d41e0fcd798f7a715dd98eedf32c full-milp 0x1.b5652bd3c3611p-1";
    "tiny rotate: b4d24b57f7b2eb02473a33e68175d89a full-milp 0x1.7643489a02752p-1";
    "B1 freeze: fa914cb15e4f864b0ecb4a9d91084a70 full-milp 0x1.af04f32b020c4p+0";
    "B1 rotate: 79b86884ff7ce775673903133e88b1cf full-milp 0x1.b2f17deecbfbp-1";
    "B10 freeze: 9fb192190fd46d4979b28ea194a76880 full-milp 0x1.a35b37b4a233ap-1";
    "B10 rotate: 7908fc83c30c4bca0b2ad5e0cf3cbaaf full-milp 0x1.a35b37b4a233ap-1";
    "B13 freeze: 67fa4d2353c9c0f8a05c8e1ebad1057b full-milp 0x1.99c357374bc6bp+0";
    "B13 rotate: 3adeae4b71618769cff29d8e59193c8d full-milp 0x1.735c0978d4fep+0";
    "B19 freeze: 78721c8cb22715603e9d5811d278474b full-milp 0x1.2fde29edfa44p+0";
    "B19 rotate: 78721c8cb22715603e9d5811d278474b full-milp 0x1.2fde29edfa44p+0";
    "B5 freeze: 74355baf5cde23ef31984e296bab039f full-milp 0x1.cc6a63b2fec5bp+0";
    "B5 rotate: 74355baf5cde23ef31984e296bab039f full-milp 0x1.cc6a63b2fec5bp+0";
    "B11 freeze: d28e617a55865c21b618024d4ba482da full-milp 0x1.96acd9e83e426p-1";
    "B20 freeze: aab7c9689731e2a9f7676bb084aa1c6f full-milp 0x1.12ee6e504816fp+0";
  ]

let test_remap () =
  let actual =
    List.concat_map
      (fun name -> [ remap_row name Rotation.Freeze; remap_row name Rotation.Rotate ])
      [ "tiny"; "B1"; "B10"; "B13"; "B19"; "B5" ]
    @ List.map (fun name -> remap_row name Rotation.Freeze) [ "B11"; "B20" ]
  in
  Alcotest.(check (list string)) "remap rows" expected_remap actual

let fault_row name spec =
  let design = design_of name in
  let baseline = Placer.aging_unaware design in
  let faults = Result.get_ok (Faults.of_string spec) in
  row
    (Printf.sprintf "%s freeze %s" name spec)
    (Faults.with_spec faults (fun () -> Remap.solve ~mode:Rotation.Freeze design baseline))

let expected_fallback =
  [
    "tiny freeze seed=1,infeas=1.0: 3fd31238630a874fb8f6ad436c2effbe heuristic \
     0x1.b5652bd3c3611p-1";
    "B22 freeze seed=1,infeas=1.0: 2f5bd34472cfd1322871cbbc091ef4ff heuristic \
     0x1.04119ce075f7p+1";
    "B10 freeze seed=1,raise=1.0: 13fb0e064c847b566928ad8ced9ff825 baseline \
     0x1.02bc6a7ef9db2p+1";
  ]

let test_fallback () =
  let actual =
    [
      fault_row "tiny" "seed=1,infeas=1.0";
      fault_row "B22" "seed=1,infeas=1.0";
      fault_row "B10" "seed=1,raise=1.0";
    ]
  in
  Alcotest.(check (list string)) "fallback rows" expected_fallback actual

(* Same instance as test_milp.ml's [structured_model]. *)
let structured_model () =
  let m = Model.create () in
  let n_ops = 7 and n_pes = 4 in
  let x = Array.init n_ops (fun _ -> Array.init n_pes (fun _ -> Model.add_binary m)) in
  for op = 0 to n_ops - 1 do
    ignore
      (Model.add_constraint m
         (Expr.sum (List.init n_pes (fun pe -> Expr.var x.(op).(pe))))
         Model.Eq 1.0)
  done;
  let stress op = 1.0 +. float_of_int ((op * 7) mod 5) /. 4.0 in
  for pe = 0 to n_pes - 1 do
    ignore
      (Model.add_constraint m
         (Expr.sum (List.init n_ops (fun op -> Expr.var ~coef:(stress op) x.(op).(pe))))
         Model.Le 3.6)
  done;
  Model.set_objective m Model.Minimize
    (Expr.sum
       (List.concat
          (List.init n_ops (fun op ->
               List.init n_pes (fun pe ->
                   Expr.var
                     ~coef:(float_of_int (((op * 13) + (pe * 5)) mod 7) /. 7.0)
                     x.(op).(pe))))));
  m

(* A 20-item, 3-row knapsack that the default stack does not close at
   the root: its rows pin a real tree with cut rounds, pool aging and
   pseudocost branching, with and without cuts and heuristics. *)
let knapsack_model () =
  let n = 20 in
  let m = Model.create () in
  let x = Array.init n (fun _ -> Model.add_binary m) in
  for r = 0 to 2 do
    ignore
      (Model.add_constraint m
         (Expr.sum
            (List.init n (fun i ->
                 Expr.var
                   ~coef:(float_of_int (3 + (((i * (7 + r)) + (r * 5)) mod 11)))
                   x.(i))))
         Model.Le
         (float_of_int (4 * n)))
  done;
  Model.set_objective m Model.Maximize
    (Expr.sum
       (List.init n (fun i -> Expr.var ~coef:(float_of_int (5 + (i * 13 mod 17))) x.(i))));
  m

let expected_milp =
  [
    "structured: objective 0x1.b6db6db6db6dbp-2, 1 nodes, 24 LP iterations, 0 cuts";
    "knapsack: objective 0x1.5p+7, 181 nodes, 1292 LP iterations, 96 cuts";
    "knapsack bare: objective 0x1.5p+7, 259 nodes, 782 LP iterations, 0 cuts";
  ]

let test_milp () =
  let base = { Milp.default_params with Milp.first_solution = false } in
  let leg name model params =
    match Milp.solve_with_stats ~params (model ()) with
    | Milp.Feasible sol, s ->
      Printf.sprintf "%s: objective %h, %d nodes, %d LP iterations, %d cuts" name
        sol.Simplex.objective s.Milp.nodes s.Milp.lp_iterations s.Milp.cuts_separated
    | r, _ -> Format.asprintf "%s: %a" name Milp.pp_result r
  in
  let actual =
    [
      leg "structured" structured_model base;
      leg "knapsack" knapsack_model base;
      leg "knapsack bare" knapsack_model
        { base with Milp.cuts = Cuts.off; heuristics = Heuristics.off };
    ]
  in
  Alcotest.(check (list string)) "milp rows" expected_milp actual

let () =
  Alcotest.run "golden"
    [
      ( "golden",
        [
          Alcotest.test_case "remap rows" `Quick test_remap;
          Alcotest.test_case "fallback rows" `Quick test_fallback;
          Alcotest.test_case "milp structured model" `Quick test_milp;
        ] );
    ]
