open Agingfp_cgrra
module Rng = Agingfp_util.Rng
module Coord = Agingfp_util.Coord

let src = Logs.Src.create "agingfp.place" ~doc:"Baseline placer"

module Log = (val Logs.src_log src : Logs.LOG)

type params = {
  seed : int;
  sa_moves : int;
  start_temp : float;
  cooling : float;
  moves_per_temp : int;
  corner_weight : float;
  wire_weight : float;
}

let default_params =
  {
    seed = 20061;
    sa_moves = 20_000;
    start_temp = 4.0;
    cooling = 0.92;
    moves_per_temp = 200;
    corner_weight = 1.0;
    wire_weight = 2.0;
  }

(* ---------- flat tables ---------- *)

(* The hot loops below read geometry and connectivity from flat
   arrays built before they run, so scoring a PE or costing a move
   allocates nothing. PE tables: x, y and the corner bias x + y of
   every PE. *)
type pe_tables = { xs : int array; ys : int array; corner : int array }

let pe_tables fabric =
  let coords = Array.init (Fabric.num_pes fabric) (Fabric.coord_of_pe fabric) in
  let xs = Array.map (fun p -> p.Coord.x) coords in
  let ys = Array.map (fun p -> p.Coord.y) coords in
  { xs; ys; corner = Array.mapi (fun pe x -> x + ys.(pe)) xs }

(* Manhattan distance between two PEs, as [Fabric.distance]. *)
let[@inline] distance t a b = abs (t.xs.(a) - t.xs.(b)) + abs (t.ys.(a) - t.ys.(b))

(* CSR adjacency of one context's DFG: op [o]'s neighbours are
   [adj.(first.(o)) .. adj.(first.(o + 1) - 1)], its predecessors (up
   to [pred_end.(o)]) in [Dfg.preds] order, then its successors. *)
type csr = { first : int array; pred_end : int array; adj : int array }

let csr dfg =
  let n = Dfg.num_ops dfg in
  let first = Array.make (n + 1) 0 in
  for o = 0 to n - 1 do
    first.(o + 1) <-
      first.(o) + List.length (Dfg.preds dfg o) + List.length (Dfg.succs dfg o)
  done;
  let adj = Array.make first.(n) 0 in
  let pred_end = Array.make n 0 in
  for o = 0 to n - 1 do
    let k = ref first.(o) in
    let push q =
      adj.(!k) <- q;
      incr k
    in
    List.iter push (Dfg.preds dfg o);
    pred_end.(o) <- !k;
    List.iter push (Dfg.succs dfg o)
  done;
  { first; pred_end; adj }

(* ---------- constructive pass ---------- *)

let greedy ?(seed = 1913) design =
  let fabric = Design.fabric design in
  let npes = Fabric.num_pes fabric in
  let t = pe_tables fabric in
  Mapping.of_arrays
    (Array.init (Design.num_contexts design) (fun c ->
         let dfg = Design.context design c in
         let g = csr dfg in
         let rng = Rng.create (seed + (c * 6151)) in
         (* Small per-context tie-breaking noise: real per-context
            netlists never produce pixel-identical layouts, and without
            it every context's critical path stacks on the same corner
            PEs, which no commercial placer exhibits. *)
         let noise = Array.init npes (fun _ -> Rng.int rng 3) in
         let n = Dfg.num_ops dfg in
         let assignment = Array.make n (-1) in
         let free = Array.make npes true in
         (* The PEs of the current op's placed predecessors. *)
         let placed = Array.make (Array.length g.adj) 0 in
         Array.iter
           (fun o ->
             let k = ref 0 in
             for i = g.first.(o) to g.pred_end.(o) - 1 do
               let q = assignment.(g.adj.(i)) in
               if q >= 0 then begin
                 placed.(!k) <- q;
                 incr k
               end
             done;
             let best = ref (-1) in
             let best_score = ref max_int in
             for pe = 0 to npes - 1 do
               if free.(pe) then begin
                 let pull = ref 0 in
                 for i = 0 to !k - 1 do
                   pull := !pull + distance t pe placed.(i)
                 done;
                 (* Weight the predecessor pull above the corner bias so
                    connected ops stay adjacent. *)
                 let s = (4 * !pull) + t.corner.(pe) + noise.(pe) in
                 if s < !best_score then begin
                   best := pe;
                   best_score := s
                 end
               end
             done;
             assignment.(o) <- !best;
             free.(!best) <- false)
           (Dfg.topological_order dfg);
         assignment))

(* ---------- simulated annealing ---------- *)

(* Cost terms for one context, maintained incrementally:
   - corner compactness: sum over used PEs of (x + y)
   - wirelength: sum over DFG edges of Manhattan length. *)

let context_cost design mapping c =
  let fabric = Design.fabric design in
  let dfg = Design.context design c in
  let corner = ref 0 in
  for o = 0 to Dfg.num_ops dfg - 1 do
    let p = Fabric.coord_of_pe fabric (Mapping.pe_of mapping ~ctx:c ~op:o) in
    corner := !corner + p.Coord.x + p.Coord.y
  done;
  let wire = ref 0 in
  Dfg.iter_edges dfg (fun u v ->
      wire :=
        !wire
        + Fabric.distance fabric
            (Mapping.pe_of mapping ~ctx:c ~op:u)
            (Mapping.pe_of mapping ~ctx:c ~op:v));
  (default_params.corner_weight *. float_of_int !corner)
  +. (default_params.wire_weight *. float_of_int !wire)

(* Wirelength of the edges incident to [o] were it on [pe]. *)
let incident_wire t g assignment o pe =
  let wire = ref 0 in
  for i = g.first.(o) to g.first.(o + 1) - 1 do
    wire := !wire + distance t pe assignment.(g.adj.(i))
  done;
  !wire

let anneal_context params t design c assignment =
  let fabric = Design.fabric design in
  let dfg = Design.context design c in
  let n = Dfg.num_ops dfg in
  let npes = Fabric.num_pes fabric in
  if n = 0 then assignment
  else begin
    let g = csr dfg in
    let corner = Array.map float_of_int t.corner in
    let rng = Rng.create (params.seed + (c * 7919)) in
    let occupant = Array.make npes (-1) in
    Array.iteri (fun o pe -> occupant.(pe) <- o) assignment;
    (* Incremental cost of one op on [pe]. Inlined, so the float
       never leaves the move loop boxed. *)
    let[@inline] op_cost o pe =
      (params.corner_weight *. corner.(pe))
      +. (params.wire_weight *. float_of_int (incident_wire t g assignment o pe))
    in
    let temp = ref params.start_temp in
    let moves_done = ref 0 in
    while !moves_done < params.sa_moves do
      for _ = 1 to params.moves_per_temp do
        if !moves_done < params.sa_moves then begin
          incr moves_done;
          let o = Rng.int rng n in
          let old_pe = assignment.(o) in
          let new_pe = Rng.int rng npes in
          if new_pe <> old_pe then begin
            let other = occupant.(new_pe) in
            let delta =
              if other < 0 then op_cost o new_pe -. op_cost o old_pe
              else begin
                (* Swap: evaluate both ops in both positions. Edges
                   between o and other are counted symmetrically
                   before and after, so the delta is still exact. *)
                let before = op_cost o old_pe +. op_cost other new_pe in
                assignment.(o) <- new_pe;
                assignment.(other) <- old_pe;
                let after = op_cost o new_pe +. op_cost other old_pe in
                assignment.(o) <- old_pe;
                assignment.(other) <- new_pe;
                after -. before
              end
            in
            let accept =
              delta <= 0.0
              || Rng.float rng 1.0 < exp (-.delta /. !temp)
            in
            if accept then begin
              if other < 0 then begin
                assignment.(o) <- new_pe;
                occupant.(old_pe) <- -1;
                occupant.(new_pe) <- o
              end
              else begin
                assignment.(o) <- new_pe;
                assignment.(other) <- old_pe;
                occupant.(new_pe) <- o;
                occupant.(old_pe) <- other
              end
            end
          end
        end
      done;
      temp := !temp *. params.cooling;
      if !temp < 0.01 then temp := 0.01
    done;
    assignment
  end

let anneal ?(params = default_params) design mapping =
  let t = pe_tables (Design.fabric design) in
  let arrays =
    Array.init (Design.num_contexts design) (fun c ->
        anneal_context params t design c (Mapping.context_array mapping c))
  in
  let result = Mapping.of_arrays arrays in
  (match Mapping.validate design result with
  | Ok () -> ()
  | Error msg ->
    Agingfp_util.Invariant.fail ~where:"Placer.anneal" "produced invalid mapping: %s"
      msg);
  result

let aging_unaware ?(params = default_params) design =
  let m = anneal ~params design (greedy ~seed:params.seed design) in
  let clock = (Design.chars design).Chars.clock_period_ns in
  let cpd = Agingfp_timing.Analysis.cpd design m in
  if cpd > clock then
    Log.info (fun k ->
        k "%s: baseline CPD %.2f ns exceeds the %.2f ns clock target" (Design.name design)
          cpd clock);
  m
