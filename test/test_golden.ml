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

   Placement rows: the baseline placer's output on its own — the
   digest of [Placer.greedy] and of [Placer.aging_unaware] per design,
   for tiny, B1-B27 and four [Benchmarks.generate ~seed] variants. Every
   remap row starts from this baseline, and every MTTF gain is measured
   against it.

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

let placement_designs () =
  (("tiny", Benchmarks.tiny ())
  :: Array.to_list
       (Array.map (fun spec -> (spec.Benchmarks.bname, Benchmarks.generate spec))
          Benchmarks.table1))
  @ List.map
      (fun (name, seed) ->
        ( Printf.sprintf "%s seed %d" name seed,
          Benchmarks.generate ~seed (Option.get (Benchmarks.find name)) ))
      [ ("B4", 1); ("B11", 2); ("B16", 3); ("B21", 4) ]

let mapping_digest m = Digest.to_hex (Digest.string (Serial.mapping_to_string m))

let expected_placement =
  [
    "tiny: greedy 32b4c10373b92e5d8e68636ee9422159 \
     aging-unaware e4b7ea35d5d107651f10375d508ecad3";
    "B1: greedy 2391031e992f1e8196d5e5a162aaabf4 \
     aging-unaware e13c958f88a91ee4a76d67edcd23e864";
    "B2: greedy bfed08aebc55641f6f6895c1803adfbd \
     aging-unaware 8f7611f91d8068654042bffa1cf6b5fc";
    "B3: greedy 39930affd8d77d7bee1fa14cfb9ac9dc \
     aging-unaware 28ea7cd7f660e647f6de40b18e607aaf";
    "B4: greedy dab0ed2be1dd5042302d957b1c953b9e \
     aging-unaware 0e0bfc19c9950ed3d569736f4157e07e";
    "B5: greedy faa7aaeaa048ba46bc36b6063297be02 \
     aging-unaware 824d84272f4bac389f431cb28818ce22";
    "B6: greedy dc763a40455d9a452d91122b609e64c4 \
     aging-unaware 6bdb1fd9eae24ec7cdddce06e9fd32fd";
    "B7: greedy ac22e1cff0bb0ec177e18f970ed1f91c \
     aging-unaware 667d4bc9bcd72dd29974748d2a8e5412";
    "B8: greedy 9c2c0b9b09bf9e48dffad05a0678096c \
     aging-unaware cc78027eb519f2f539eb112195028e7d";
    "B9: greedy 2439e282b7e19bbc3a0f783e0272e693 \
     aging-unaware 4e0cf837191fac956c8020001eab4cf4";
    "B10: greedy 59d301446cf477d726204d0af2962f2a \
     aging-unaware 13fb0e064c847b566928ad8ced9ff825";
    "B11: greedy 9a8f260d125f05821c0d4a42b7208ee2 \
     aging-unaware 6454e28bd4609c0ac97d054e113aa432";
    "B12: greedy b65ba799f3f3590ede46e12bdaf92ff3 \
     aging-unaware b56233443c770ef9b4664e00da400852";
    "B13: greedy 30d7dfc446b10c3f2e4332664b3803cf \
     aging-unaware da88bd8a1c5b2c4c48365257868d4512";
    "B14: greedy 081d140a21c36f12d670618ed8ee9b49 \
     aging-unaware fef638daf444297b6239307affa40ccb";
    "B15: greedy 266bf2594f0061725eb03c765c0403a2 \
     aging-unaware 8d8e678e9ba912297d49b249cbc639cf";
    "B16: greedy 4994a50c73ab0f0c5e42f4cc56796b01 \
     aging-unaware cf85898daa62e0535523c67c1ea9d357";
    "B17: greedy 4c88dd4ebc4a538014ce77635d81430a \
     aging-unaware 621fdd1ff3d514f2e52ea7c3a79f88b3";
    "B18: greedy 9eee629fe60fc0324e7a16e8bcd618c3 \
     aging-unaware 8f645824d5195146dec11940af8bb86e";
    "B19: greedy 99c99956e92cc7b2bfa4e9c62a947f88 \
     aging-unaware ead1c46c25cc1f8590b9ca481e477ac4";
    "B20: greedy ea3d52184ba1b1c2137a6ff11217962f \
     aging-unaware 592abb39c17296b8d2749dbfb432501a";
    "B21: greedy 8253460c1866f53e3d3c795a834f810a \
     aging-unaware 96503608d8a27458d79715b2f7f31ea6";
    "B22: greedy 58f76abe68c263591462be1b45f6c805 \
     aging-unaware 282dcea9942b5066af49b1ea716a277d";
    "B23: greedy 4f2cfbcf6e3b0124b49603d03cc93c7d \
     aging-unaware bd2f8d72ee3e5a4ad0ab31838000da68";
    "B24: greedy 1d8a428a9f8ae1fd337c58b0e091b2d2 \
     aging-unaware e07d935a46eace2ffc2ec730972cb3be";
    "B25: greedy a5b812b5e0c048cbfcf472ad4b50c0d6 \
     aging-unaware dc9857ab4ed5f042e415d58c54a31587";
    "B26: greedy 6c436a1deaec5451db4998e988498457 \
     aging-unaware 6cc3082bd5fb1714bd9baa3ddfcae38d";
    "B27: greedy f8fd9e22dc555964ed0d0a3d7f399cee \
     aging-unaware 671075196c5de7a94a0f4a674417f4cf";
    "B4 seed 1: greedy 7ba0d81048cf6a62ab670569572edd22 \
     aging-unaware 03e9400d59ffa608b8d38f0a180ccbe2";
    "B11 seed 2: greedy 28799bb679504d84ee45ce37c9f26d8e \
     aging-unaware a0053a7ef1e77bbdd2dbb0286e41f61e";
    "B16 seed 3: greedy 8176e443ae16217106d4dc88ece5b60d \
     aging-unaware a722b1f2864a05dcbcfacc691168c106";
    "B21 seed 4: greedy 515efd14aa69a40cb8f50d842e5aff5b \
     aging-unaware 7d43ac6355dbb5fcbe74d99d1eb6ebd0";
  ]

let test_placement () =
  let actual =
    List.map
      (fun (name, design) ->
        Printf.sprintf "%s: greedy %s aging-unaware %s" name
          (mapping_digest (Placer.greedy design))
          (mapping_digest (Placer.aging_unaware design)))
      (placement_designs ())
  in
  Alcotest.(check (list string)) "placement rows" expected_placement actual

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
          Alcotest.test_case "placement rows" `Quick test_placement;
          Alcotest.test_case "fallback rows" `Quick test_fallback;
          Alcotest.test_case "milp structured model" `Quick test_milp;
        ] );
    ]
