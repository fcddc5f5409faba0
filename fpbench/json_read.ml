(* Minimal JSON reader for the daemon's response bodies, producing the
   emitter's own [Json.t]. Numbers with a fraction or exponent become
   [Float], others [Int]; \u escapes below 0x80 are decoded, others
   kept as '?', which the response fields read here never contain. *)

module Json = Agingfp_lintcode.Json

exception Bad of string

let parse (s : string) : Json.t =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let fail what = raise (Bad (Printf.sprintf "%s at offset %d" what !pos)) in
  let rec skip () =
    match peek () with
    | ' ' | '\n' | '\r' | '\t' ->
      incr pos;
      skip ()
    | _ -> ()
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %c" c) in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (
      pos := !pos + l;
      v)
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        let c = peek () in
        incr pos;
        (match c with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 > n then fail "short \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          Buffer.add_char b (if code < 0x80 then Char.chr code else '?')
        | c -> Buffer.add_char b c);
        go ()
      | '\000' when !pos >= n -> fail "unterminated string"
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let is_num c = match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false in
    while !pos < n && is_num s.[!pos] do
      incr pos
    done;
    let text = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text then
      match float_of_string_opt text with Some f -> Json.Float f | None -> fail "bad number"
    else match int_of_string_opt text with Some i -> Json.Int i | None -> fail "bad number"
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
      incr pos;
      skip ();
      if peek () = '}' then (
        incr pos;
        Json.Obj [])
      else
        let rec fields acc =
          skip ();
          let k = string () in
          skip ();
          expect ':';
          let v = value () in
          skip ();
          match peek () with
          | ',' ->
            incr pos;
            fields ((k, v) :: acc)
          | '}' ->
            incr pos;
            Json.Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        fields []
    | '[' ->
      incr pos;
      skip ();
      if peek () = ']' then (
        incr pos;
        Json.List [])
      else
        let rec items acc =
          let v = value () in
          skip ();
          match peek () with
          | ',' ->
            incr pos;
            items (v :: acc)
          | ']' ->
            incr pos;
            Json.List (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        items []
    | '"' -> Json.Str (string ())
    | 't' -> literal "true" (Json.Bool true)
    | 'f' -> literal "false" (Json.Bool false)
    | 'n' -> literal "null" Json.Null
    | _ -> number ()
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing data";
  v

let field name = function
  | Json.Obj fs -> List.assoc_opt name fs
  | _ -> None

let num name j =
  match field name j with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let str name j = match field name j with Some (Json.Str s) -> Some s | _ -> None
