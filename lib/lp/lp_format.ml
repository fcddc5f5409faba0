[@@@codelint.allow "budget-poll"
  "scanner/lexer loops: every while below advances a cursor over an \
   in-memory string, bounded by its length — parse time is dwarfed by the \
   solves the budget supervises"]

let var_name v = Printf.sprintf "x%d" v

let float_lit f =
  (* LP format accepts plain decimal notation; avoid exponents for the
     magnitudes this library produces. *)
  if Float.is_integer f && abs_float f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let expr_terms_string e =
  let terms = Expr.terms e in
  if terms = [] then "0 x0"
  else begin
    let buf = Buffer.create 128 in
    List.iteri
      (fun i (v, c) ->
        if i = 0 then begin
          if c < 0.0 then Buffer.add_string buf "- ";
          if not (Float.equal (abs_float c) 1.0) then begin
            Buffer.add_string buf (float_lit (abs_float c));
            Buffer.add_char buf ' '
          end
        end
        else begin
          Buffer.add_string buf (if c < 0.0 then " - " else " + ");
          if not (Float.equal (abs_float c) 1.0) then begin
            Buffer.add_string buf (float_lit (abs_float c));
            Buffer.add_char buf ' '
          end
        end;
        Buffer.add_string buf (var_name v))
      terms;
    Buffer.contents buf
  end

(* LP-format row labels may not contain whitespace or operators; keep
   alphanumerics and underscores, fall back to the positional [c<i>]
   label for anything that does not survive sanitization. *)
let row_label model i =
  match Model.row_name model i with
  | "" -> Printf.sprintf "c%d" i
  | name ->
    let ok = ref (name.[0] < '0' || name.[0] > '9') in
    String.iter
      (fun ch ->
        match ch with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ()
        | _ -> ok := false)
      name;
    if !ok then name else Printf.sprintf "c%d" i

let to_string model =
  let buf = Buffer.create 4096 in
  let dir, obj = Model.objective model in
  Buffer.add_string buf
    (match dir with Model.Minimize -> "Minimize\n" | Model.Maximize -> "Maximize\n");
  Buffer.add_string buf (" obj: " ^ expr_terms_string obj ^ "\n");
  Buffer.add_string buf "Subject To\n";
  Model.iter_constraints model (fun i lhs rel rhs ->
      let op = match rel with Model.Le -> "<=" | Model.Ge -> ">=" | Model.Eq -> "=" in
      Buffer.add_string buf
        (Printf.sprintf " %s: %s %s %s\n" (row_label model i) (expr_terms_string lhs) op
           (float_lit rhs)));
  (* Bounds: LP format defaults to 0 <= x < +inf. *)
  let bounds = Buffer.create 512 in
  for v = 0 to Model.num_vars model - 1 do
    let lb = Model.var_lb model v and ub = Model.var_ub model v in
    let binary =
      Model.var_kind model v = Model.Integer
      && Float.equal lb 0.0 && Float.equal ub 1.0
    in
    if not binary then begin
      if lb = ub then
        Buffer.add_string bounds (Printf.sprintf " %s = %s\n" (var_name v) (float_lit lb))
      else begin
        if Float.equal lb neg_infinity && Float.equal ub infinity then
          Buffer.add_string bounds (Printf.sprintf " %s free\n" (var_name v))
        else begin
          if not (Float.equal lb 0.0) then
            Buffer.add_string bounds
              (if Float.equal lb neg_infinity then
                 Printf.sprintf " -inf <= %s\n" (var_name v)
               else Printf.sprintf " %s >= %s\n" (var_name v) (float_lit lb));
          if not (Float.equal ub infinity) then
            Buffer.add_string bounds
              (Printf.sprintf " %s <= %s\n" (var_name v) (float_lit ub))
        end
      end
    end
  done;
  if Buffer.length bounds > 0 then begin
    Buffer.add_string buf "Bounds\n";
    Buffer.add_buffer buf bounds
  end;
  (* Integer sections. *)
  let binaries = Buffer.create 256 in
  let generals = Buffer.create 256 in
  for v = 0 to Model.num_vars model - 1 do
    if Model.var_kind model v = Model.Integer then begin
      if
        Float.equal (Model.var_lb model v) 0.0
        && Float.equal (Model.var_ub model v) 1.0
      then
        Buffer.add_string binaries (Printf.sprintf " %s\n" (var_name v))
      else Buffer.add_string generals (Printf.sprintf " %s\n" (var_name v))
    end
  done;
  if Buffer.length binaries > 0 then begin
    Buffer.add_string buf "Binary\n";
    Buffer.add_buffer buf binaries
  end;
  if Buffer.length generals > 0 then begin
    Buffer.add_string buf "General\n";
    Buffer.add_buffer buf generals
  end;
  Buffer.add_string buf "End\n";
  Buffer.contents buf

let write_file path model =
  try
    Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (to_string model));
    Ok ()
  with Sys_error msg -> Error msg

(* -------------------------------------------------------------------
   Parser for the subset this writer emits (plus common variations):
   a linear objective, labelled rows, a Bounds section with the five
   writer forms, Binary/General lists, End. Round-tripping a model
   through [to_string]/[of_string] recovers variable and row counts,
   kinds, relations and (up to [%.12g] printing) coefficients, bounds
   and right-hand sides.
   ------------------------------------------------------------------- *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let relation_of_token = function
  | "<=" | "<" | "=<" -> Some Model.Le
  | ">=" | ">" | "=>" -> Some Model.Ge
  | "=" -> Some Model.Eq
  | _ -> None

let number_of_token t =
  match String.lowercase_ascii t with
  | "inf" | "+inf" | "infinity" | "+infinity" -> Some infinity
  | "-inf" | "-infinity" -> Some neg_infinity
  | _ -> float_of_string_opt t

let is_label t = String.length t > 1 && t.[String.length t - 1] = ':'
let strip_label t = String.sub t 0 (String.length t - 1)

(* Tokens split by whitespace, comments ([\ ] to end of line) removed. *)
let tokenize text =
  let toks = ref [] in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         let line =
           match String.index_opt line '\\' with
           | Some i -> String.sub line 0 i
           | None -> line
         in
         String.split_on_char ' ' line
         |> List.concat_map (String.split_on_char '\t')
         |> List.iter (fun t ->
                let t = String.trim t in
                if t <> "" then toks := t :: !toks));
  Array.of_list (List.rev !toks)

type section = Sec_rows | Sec_bounds | Sec_binary | Sec_general

let section_of_token toks i =
  (* Returns [(section-or-end, tokens consumed)] when the token at [i]
     opens a new section. *)
  match String.lowercase_ascii toks.(i) with
  | "minimize" | "min" -> Some (`Obj Model.Minimize, 1)
  | "maximize" | "max" -> Some (`Obj Model.Maximize, 1)
  | "subject" when i + 1 < Array.length toks
                   && String.lowercase_ascii toks.(i + 1) = "to" ->
    Some (`Sec Sec_rows, 2)
  | "st" | "s.t." -> Some (`Sec Sec_rows, 1)
  | "bounds" | "bound" -> Some (`Sec Sec_bounds, 1)
  | "binary" | "binaries" | "bin" -> Some (`Sec Sec_binary, 1)
  | "general" | "generals" | "gen" | "integer" | "integers" ->
    Some (`Sec Sec_general, 1)
  | "end" -> Some (`End, 1)
  | _ -> None

(* [(name, coef)] terms plus an additive constant. *)
let parse_expr_tokens toks =
  let terms = ref [] and constant = ref 0.0 in
  let sign = ref 1.0 and pending = ref None in
  (* An operator must be followed by a number or a variable. *)
  let dangling_op = ref false in
  let flush_pending () =
    match !pending with
    | Some c ->
      constant := !constant +. c;
      pending := None
    | None -> ()
  in
  List.iter
    (fun t ->
      if t = "+" then dangling_op := true
      else if t = "-" then begin
        dangling_op := true;
        sign := -. !sign
      end
      else if is_label t then ()
      else begin
        dangling_op := false;
        match number_of_token t with
        | Some n ->
          flush_pending ();
          pending := Some (!sign *. n);
          sign := 1.0
        | None ->
          let c = match !pending with Some c -> c | None -> !sign in
          pending := None;
          sign := 1.0;
          terms := (t, c) :: !terms
      end)
    toks;
  if !dangling_op then fail "expression ends on a dangling + or -";
  flush_pending ();
  (List.rev !terms, !constant)

let parse_rows_tokens toks =
  let rows = ref [] and cur = ref [] in
  let n = Array.length toks in
  let i = ref 0 in
  while !i < n do
    let t = toks.(!i) in
    match relation_of_token t with
    | Some rel ->
      incr i;
      if !i >= n then fail "constraint relation %s with no right-hand side" t;
      let rhs =
        match number_of_token toks.(!i) with
        | Some v -> v
        | None -> fail "expected a number after %s, got %s" t toks.(!i)
      in
      incr i;
      let lhs_toks = List.rev !cur in
      cur := [];
      let label, lhs_toks =
        match lhs_toks with
        | l :: rest when is_label l -> (strip_label l, rest)
        | _ -> ("", lhs_toks)
      in
      if lhs_toks = [] then fail "constraint `%s` has an empty left-hand side" label;
      rows := (label, lhs_toks, rel, rhs) :: !rows
    | None ->
      cur := t :: !cur;
      incr i
  done;
  if !cur <> [] then
    fail "dangling tokens after the last constraint: %s" (String.concat " " (List.rev !cur));
  List.rev !rows

type bound_entry = {
  mutable blo : float option;
  mutable bhi : float option;
  mutable bfree : bool;
}

let parse_bounds_tokens toks =
  let entries : (string, bound_entry) Hashtbl.t = Hashtbl.create 32 in
  let entry name =
    match Hashtbl.find_opt entries name with
    | Some e -> e
    | None ->
      let e = { blo = None; bhi = None; bfree = false } in
      Hashtbl.add entries name e;
      e
  in
  let n = Array.length toks in
  let i = ref 0 in
  let next what =
    if !i >= n then fail "bounds section ends inside an entry (expected %s)" what;
    let t = toks.(!i) in
    incr i;
    t
  in
  while !i < n do
    let t = next "a bound entry" in
    match number_of_token t with
    | Some v -> (
      (* [v <= x [<= v2]]  or  [v >= x] *)
      match relation_of_token (next "a relation") with
      | Some Model.Le ->
        let name = next "a variable" in
        (entry name).blo <- Some v;
        if !i < n && relation_of_token toks.(!i) = Some Model.Le then begin
          incr i;
          match number_of_token (next "a number") with
          | Some v2 -> (entry name).bhi <- Some v2
          | None -> fail "expected a number closing the range bound on %s" name
        end
      | Some Model.Ge ->
        let name = next "a variable" in
        (entry name).bhi <- Some v
      | _ -> fail "unsupported bound entry starting with %s" t)
    | None -> (
      let name = t in
      match String.lowercase_ascii (next "a relation or `free`") with
      | "free" -> (entry name).bfree <- true
      | "=" -> (
        match number_of_token (next "a number") with
        | Some v ->
          let e = entry name in
          e.blo <- Some v;
          e.bhi <- Some v
        | None -> fail "expected a number fixing %s" name)
      | "<=" | "<" | "=<" -> (
        match number_of_token (next "a number") with
        | Some v -> (entry name).bhi <- Some v
        | None -> fail "expected a number bounding %s above" name)
      | ">=" | ">" | "=>" -> (
        match number_of_token (next "a number") with
        | Some v -> (entry name).blo <- Some v
        | None -> fail "expected a number bounding %s below" name)
      | other -> fail "unsupported bound form `%s %s`" name other)
  done;
  entries

let of_string text =
  try
    let toks = tokenize text in
    let n = Array.length toks in
    (* Slice the token stream into sections. *)
    let dir = ref Model.Minimize in
    let obj_toks = ref [] and row_toks = ref [] in
    let bounds_toks = ref [] and binary_toks = ref [] and general_toks = ref [] in
    let cur = ref None in
    let i = ref 0 in
    let stop = ref false in
    while (not !stop) && !i < n do
      match section_of_token toks !i with
      | Some (`Obj d, k) ->
        dir := d;
        cur := Some obj_toks;
        i := !i + k
      | Some (`Sec s, k) ->
        cur :=
          Some
            (match s with
            | Sec_rows -> row_toks
            | Sec_bounds -> bounds_toks
            | Sec_binary -> binary_toks
            | Sec_general -> general_toks);
        i := !i + k
      | Some (`End, _) -> stop := true
      | None -> (
        match !cur with
        | None -> fail "token `%s` before any section header" toks.(!i)
        | Some acc ->
          acc := toks.(!i) :: !acc;
          incr i)
    done;
    let obj_terms, obj_const = parse_expr_tokens (List.rev !obj_toks) in
    let rows = parse_rows_tokens (Array.of_list (List.rev !row_toks)) in
    let bounds = parse_bounds_tokens (Array.of_list (List.rev !bounds_toks)) in
    let binaries = List.rev !binary_toks and generals = List.rev !general_toks in
    (* Variable registry, in order of first appearance. When every
       name matches the writer's [x<index>] convention, indices are
       recovered exactly (including never-mentioned gap variables). *)
    let order = ref [] and seen = Hashtbl.create 64 in
    let note name =
      if not (Hashtbl.mem seen name) then begin
        Hashtbl.add seen name ();
        order := name :: !order
      end
    in
    List.iter (fun (v, _) -> note v) obj_terms;
    List.iter (fun (_, lhs, _, _) ->
        List.iter (fun t ->
            if t <> "+" && t <> "-" && number_of_token t = None then note t)
          lhs)
      rows;
    List.iter note
      (List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) bounds []));
    List.iter note binaries;
    List.iter note generals;
    let names = List.rev !order in
    let writer_index name =
      if String.length name >= 2 && name.[0] = 'x' then
        int_of_string_opt (String.sub name 1 (String.length name - 1))
      else None
    in
    let index : (string, int) Hashtbl.t = Hashtbl.create 64 in
    let all_writer_style =
      names <> [] && List.for_all (fun nm -> writer_index nm <> None) names
    in
    let nvars =
      if all_writer_style then begin
        let top = ref 0 in
        List.iter
          (fun nm ->
            let ix = Option.get (writer_index nm) in
            Hashtbl.replace index nm ix;
            if ix > !top then top := ix)
          names;
        !top + 1
      end
      else begin
        List.iteri (fun ix nm -> Hashtbl.replace index nm ix) names;
        List.length names
      end
    in
    let name_of = Array.make nvars "" in
    (Hashtbl.iter (fun nm ix -> name_of.(ix) <- nm) index
    [@codelint.allow "det-order"
      "each binding writes the distinct array slot its own value names: \
       disjoint writes commute"]);
    for ix = 0 to nvars - 1 do
      if name_of.(ix) = "" then name_of.(ix) <- Printf.sprintf "x%d" ix
    done;
    let is_integer = Hashtbl.create 64 in
    List.iter (fun nm -> Hashtbl.replace is_integer nm ()) binaries;
    List.iter (fun nm -> Hashtbl.replace is_integer nm ()) generals;
    let is_binary = Hashtbl.create 64 in
    List.iter (fun nm -> Hashtbl.replace is_binary nm ()) binaries;
    (* Materialize. *)
    let model = Model.create () in
    Array.iter
      (fun nm ->
        let kind =
          if Hashtbl.mem is_integer nm then Model.Integer else Model.Continuous
        in
        let e = Hashtbl.find_opt bounds nm in
        let dlo, dhi =
          if Hashtbl.mem is_binary nm then (0.0, 1.0) else (0.0, infinity)
        in
        let dlo, dhi =
          match e with Some e when e.bfree -> (neg_infinity, infinity) | _ -> (dlo, dhi)
        in
        let lb = match e with Some { blo = Some v; _ } -> v | _ -> dlo in
        let ub = match e with Some { bhi = Some v; _ } -> v | _ -> dhi in
        if lb > ub then fail "variable %s has crossed bounds [%g, %g]" nm lb ub;
        ignore (Model.add_var ~name:nm ~lb ~ub ~kind model))
      name_of;
    let var_of nm =
      match Hashtbl.find_opt index nm with
      | Some ix -> ix
      | None -> fail "unknown variable %s" nm
    in
    let build_expr toks =
      let terms, constant = parse_expr_tokens toks in
      List.fold_left
        (fun e (nm, c) -> Expr.add_term e c (var_of nm))
        (Expr.const constant) terms
    in
    List.iter
      (fun (label, lhs_toks, rel, rhs) ->
        ignore (Model.add_constraint ~name:label model (build_expr lhs_toks) rel rhs))
      rows;
    let obj =
      List.fold_left
        (fun e (nm, c) -> Expr.add_term e c (var_of nm))
        (Expr.const obj_const) obj_terms
    in
    Model.set_objective model !dir obj;
    Ok model
  with
  | Parse_error msg -> Error msg
  | Invalid_argument msg -> Error msg

let read_file path =
  try of_string (In_channel.with_open_text path In_channel.input_all)
  with Sys_error msg -> Error msg
