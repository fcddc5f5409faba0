(* Seeded fault injection for the server layer, mirroring
   [Lp.Faults]: a process-global armed spec, Bernoulli draws that only
   consume randomness at positive probability (enabling one class does
   not shift another class's stream), and per-class fired counters the
   tests assert against. Unlike the solver injector this one is read
   from several worker domains at once, so draws are mutex-guarded.

   Classes:
   - [raise]  — a worker explodes mid-request; the server must answer
                a structured 500 and keep serving.
   - [poison] — a warm-cache entry is corrupted at checkout; the
                server must detect the bad entry, discard it and solve
                cold.
   - [expire] — the request's remaining deadline collapses to ~0 just
                before the solve; the solve must fall through to the
                audited baseline (503), never hang or ship unaudited.
   - [slow]   — consumed by the loopback client, which dribbles the
                request bytes to emulate a slow-loris peer; the server
                must cut the read off with a 408. *)

module Rng = Agingfp_util.Rng

exception Injected of string

type spec = {
  seed : int;
  p_worker_raise : float;
  p_cache_poison : float;
  p_mid_deadline : float;
  slow_write_delay_s : float;
      (* client-side: delay between dribbled writes; 0 = off *)
}

let none =
  {
    seed = 0;
    p_worker_raise = 0.0;
    p_cache_poison = 0.0;
    p_mid_deadline = 0.0;
    slow_write_delay_s = 0.0;
  }

type fired = {
  worker_raises : int;
  cache_poisons : int;
  mid_deadlines : int;
}

let no_fired = { worker_raises = 0; cache_poisons = 0; mid_deadlines = 0 }

type injector = { spec : spec; rng : Rng.t; mutable counts : fired }

let state : injector option ref = ref None
let armed = ref false
let mutex = Mutex.create ()

let install spec =
  Mutex.lock mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock mutex)
    (fun () ->
      if spec = none then begin
        state := None;
        armed := false
      end
      else begin
        state := Some { spec; rng = Rng.create spec.seed; counts = no_fired };
        armed := true
      end)

let clear () =
  Mutex.lock mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock mutex)
    (fun () ->
      state := None;
      armed := false)

let active () = !armed

let fired () =
  Mutex.lock mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock mutex)
    (fun () -> match !state with Some i -> i.counts | None -> no_fired)

let with_spec spec f =
  install spec;
  Fun.protect ~finally:clear f

let spec () =
  Mutex.lock mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock mutex)
    (fun () -> match !state with Some i -> i.spec | None -> none)

(* A Bernoulli draw only consumes randomness when the probability is
   positive, so enabling one fault class does not shift another
   class's stream. Caller holds the mutex. *)
let draw inj p = p > 0.0 && Rng.float inj.rng 1.0 < p

let with_injector f =
  if not !armed then false
  else begin
    Mutex.lock mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock mutex)
      (fun () -> match !state with Some inj -> f inj | None -> false)
  end

let worker_checkpoint ~where =
  let fire =
    with_injector (fun inj ->
        if draw inj inj.spec.p_worker_raise then begin
          inj.counts <- { inj.counts with worker_raises = inj.counts.worker_raises + 1 };
          true
        end
        else false)
  in
  if fire then raise (Injected where)

let poison_cache () =
  with_injector (fun inj ->
      if draw inj inj.spec.p_cache_poison then begin
        inj.counts <- { inj.counts with cache_poisons = inj.counts.cache_poisons + 1 };
        true
      end
      else false)

let collapse_deadline () =
  with_injector (fun inj ->
      if draw inj inj.spec.p_mid_deadline then begin
        inj.counts <- { inj.counts with mid_deadlines = inj.counts.mid_deadlines + 1 };
        true
      end
      else false)

(* ---------- CLI spec syntax ---------- *)

let to_string s =
  Printf.sprintf "seed=%d,raise=%g,poison=%g,expire=%g,slow=%g" s.seed s.p_worker_raise
    s.p_cache_poison s.p_mid_deadline s.slow_write_delay_s

let of_string str =
  let parse_field spec field =
    let field = String.trim field in
    if field = "" then Ok spec
    else
      match String.index_opt field '=' with
      | None -> Error (Printf.sprintf "bad fault field %S (want key=value)" field)
      | Some i -> (
        let key = String.trim (String.sub field 0 i) in
        let value = String.trim (String.sub field (i + 1) (String.length field - i - 1)) in
        let prob k =
          match float_of_string_opt value with
          | Some p when p >= 0.0 && p <= 1.0 -> Ok (k p)
          | _ ->
            Error
              (Printf.sprintf "fault key %s wants a probability in [0,1], got %S" key
                 value)
        in
        match key with
        | "seed" -> (
          match int_of_string_opt value with
          | Some seed -> Ok { spec with seed }
          | None -> Error (Printf.sprintf "fault key seed wants an integer, got %S" value))
        | "slow" -> (
          match float_of_string_opt value with
          | Some d when d >= 0.0 -> Ok { spec with slow_write_delay_s = d }
          | _ ->
            Error (Printf.sprintf "fault key slow wants a non-negative delay, got %S" value)
          )
        | "raise" -> prob (fun p -> { spec with p_worker_raise = p })
        | "poison" -> prob (fun p -> { spec with p_cache_poison = p })
        | "expire" -> prob (fun p -> { spec with p_mid_deadline = p })
        | _ ->
          Error
            (Printf.sprintf
               "unknown fault key %S (known: seed, raise, poison, expire, slow)" key))
  in
  List.fold_left
    (fun acc field -> Result.bind acc (fun spec -> parse_field spec field))
    (Ok none)
    (String.split_on_char ',' str)
