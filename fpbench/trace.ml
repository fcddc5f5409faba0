(* In-memory span and counter recorder for the traced benchmark run.

   Spans are recorded from the benchmark's own code around calls into
   the program's layers (the program itself carries no tracing). When
   [enabled] is false, [span] is a single branch around the call. The
   record is written at the end of the run as Chrome trace-event JSON,
   which Perfetto (ui.perfetto.dev) and chrome://tracing open as is. *)

module Json = Agingfp_lintcode.Json
module Budget = Agingfp_util.Budget

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a top-level span *)
  attempt : int;  (** attempt id the span belongs to; 0 for none *)
  tid : int;  (** lane in the trace viewer: one per client thread *)
  t0 : float;  (** seconds since the trace clock started *)
  t1 : float;
}

let enabled = ref false
let clock = ref (Budget.create ())
let spans : span list ref = ref []
let counters : (string * float * float) list ref = ref []
let next_id = ref 0
let lock = Mutex.create ()

let now () = Budget.elapsed_s !clock

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let start () =
  enabled := true;
  clock := Budget.create ();
  spans := [];
  counters := [];
  next_id := 0

let fresh_id () = locked (fun () -> incr next_id; !next_id)

let record s = locked (fun () -> spans := s :: !spans)

(* [span name f] times [f id] as a child of [parent]; [id] is the new
   span's id, for nesting further spans under it. *)
let span ?(parent = 0) ?(attempt = 0) ?(tid = 0) name f =
  if not !enabled then f 0
  else begin
    let id = fresh_id () in
    let t0 = now () in
    let finish () = record { id; name; parent; attempt; tid; t0; t1 = now () } in
    match f id with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

(* A span whose interval is known rather than timed here, e.g. the
   queue wait and solve time the daemon reports for one request. *)
let add ?(parent = 0) ?(attempt = 0) ?(tid = 0) name ~t0 ~t1 =
  if !enabled then record { id = fresh_id (); name; parent; attempt; tid; t0; t1 }

let count name v = if !enabled then locked (fun () -> counters := (name, now (), v) :: !counters)

let all () = List.rev !spans

(* Measure of the union of a set of intervals. *)
let union_length intervals =
  let sorted = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) when a <= cb -> (acc, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (acc +. (cb -. ca), Some (a, b)))
      (0.0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Share of [wall_s] covered by top-level spans. *)
let coverage ~wall_s =
  let tops = List.filter_map (fun s -> if s.parent = 0 then Some (s.t0, s.t1) else None) (all ()) in
  if wall_s <= 0.0 then 0.0 else union_length tops /. wall_s

(* A layer is a span name without its last dot-separated segment
   ("floorplan.candidates.build" -> "floorplan.candidates"); a name
   without a dot is its own layer. *)
let layer_of name =
  match String.rindex_opt name '.' with None -> name | Some i -> String.sub name 0 i

(* Self time per layer: each span's duration minus the part of its
   interval its children cover, summed by layer, sorted descending. *)
let self_times () =
  let spans = all () in
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children s.parent
          ((s.t0, s.t1) :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  let by_layer = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let covered =
        union_length
          (List.map
             (fun (a, b) -> (Float.max a s.t0, Float.min b s.t1))
             (Option.value ~default:[] (Hashtbl.find_opt children s.id)))
      in
      let self = Float.max 0.0 (s.t1 -. s.t0 -. covered) in
      let l = layer_of s.name in
      Hashtbl.replace by_layer l (self +. Option.value ~default:0.0 (Hashtbl.find_opt by_layer l)))
    spans;
  Hashtbl.fold (fun l v acc -> (l, v) :: acc) by_layer []
  |> List.sort (fun (la, a) (lb, b) -> match compare b a with 0 -> compare la lb | c -> c)

(* Durations of every span with this exact name, in record order. *)
let durations name =
  List.filter_map (fun s -> if s.name = name then Some (s.t1 -. s.t0) else None) (all ())

let to_chrome ~meta =
  let us t = Json.Float (t *. 1e6) in
  let span_event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str (layer_of s.name));
        ("ph", Json.Str "X");
        ("ts", us s.t0);
        ("dur", us (s.t1 -. s.t0));
        ("pid", Json.Int 1);
        ("tid", Json.Int s.tid);
        ( "args",
          Json.Obj
            [ ("span", Json.Int s.id); ("parent", Json.Int s.parent); ("attempt", Json.Int s.attempt) ]
        );
      ]
  in
  let counter_event (name, t, v) =
    Json.Obj
      [
        ("name", Json.Str name);
        ("ph", Json.Str "C");
        ("ts", us t);
        ("pid", Json.Int 1);
        ("args", Json.Obj [ ("value", Json.Float v) ]);
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ( "traceEvents",
           Json.List (List.map span_event (all ()) @ List.rev_map counter_event !counters) );
         ("displayTimeUnit", Json.Str "ms");
         ("otherData", meta);
       ])
