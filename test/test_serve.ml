(* Integration tests for the remap daemon (`agingfp serve`): loopback
   round-trips, the 4xx error matrix, 429 load shedding at capacity,
   SIGTERM drain, and one audit-clean response per injected fault
   class. Every test binds an ephemeral port, runs the server on a
   background thread and drives it through the real socket stack. *)

open Agingfp_cgrra
module Server = Agingfp_serve.Server
module Client = Agingfp_serve.Client
module Inject = Agingfp_serve.Inject
module Http = Agingfp_serve.Http
module Placer = Agingfp_place.Placer

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let tiny = lazy (Benchmarks.tiny ())
let tiny_text = lazy (Serial.design_to_string (Lazy.force tiny))

let with_server ?config f =
  let base = Option.value config ~default:Server.default_config in
  let server = Server.create ~config:{ base with Server.port = 0 } () in
  let th = Thread.create Server.run server in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop server;
      Thread.join th)
    (fun () -> f server)

let request ?headers ?(meth = "POST") ?(body = "") ?slow_write_delay_s server path =
  match
    Client.request ?headers ~meth ~body ?slow_write_delay_s ~host:"127.0.0.1"
      ~port:(Server.port server) path
  with
  | Ok r -> r
  | Error msg -> Alcotest.failf "request %s failed: %s" path msg

(* The number after ["key":] in a flat JSON body. *)
let json_float body key =
  let needle = Printf.sprintf "\"%s\":" key in
  let n = String.length needle and h = String.length body in
  let rec find i =
    if i + n > h then Alcotest.failf "no %s in response" key
    else if String.sub body i n = needle then i + n
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while !stop < h && String.contains "0123456789.eE+-" body.[!stop] do
    incr stop
  done;
  float_of_string (String.sub body start (!stop - start))

(* ---------- round trip + warm cache ---------- *)

let test_round_trip () =
  with_server (fun server ->
      let body = Lazy.force tiny_text in
      (* format=mapping: floorplan text in the body, metadata in
         headers — parse and validate it like a downstream tool. *)
      let r = request server ~body "/remap?deadline=5&format=mapping" in
      Alcotest.(check int) "status" 200 r.Client.status;
      Alcotest.(check (option string))
        "audited" (Some "pass")
        (Client.header "x-agingfp-audit" r);
      (match Serial.mapping_of_string r.Client.body with
      | Error msg -> Alcotest.failf "response mapping unparsable: %s" msg
      | Ok m -> (
        match Mapping.validate (Lazy.force tiny) m with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "response mapping invalid: %s" msg));
      Alcotest.(check (option string))
        "first solve is cold" (Some "miss")
        (Client.header "x-agingfp-cache" r);
      (* Same design again: the warm state must be found. *)
      let t0 = Unix.gettimeofday () in
      let r2 = request server ~body "/remap?deadline=5" in
      let round_trip = Unix.gettimeofday () -. t0 in
      Alcotest.(check int) "repeat status" 200 r2.Client.status;
      Alcotest.(check bool) "repeat audited" true (contains r2.Client.body "\"audit_ok\":true");
      Alcotest.(check (option string))
        "repeat hits warm cache" (Some "hit")
        (Client.header "x-agingfp-cache" r2);
      (* A design-only body is placed by the daemon, inside the round
         trip; a body that carries the baseline is not placed. *)
      let place_s = json_float r2.Client.body "place_s" in
      Alcotest.(check bool) "place_s within the round trip" true
        (0.0 <= place_s && place_s <= round_trip);
      let with_mapping =
        body ^ Serial.mapping_to_string (Placer.aging_unaware (Lazy.force tiny))
      in
      let r3 = request server ~body:with_mapping "/remap?deadline=5" in
      Alcotest.(check int) "mapping body status" 200 r3.Client.status;
      Alcotest.(check (float 0.0)) "mapping body not placed" 0.0
        (json_float r3.Client.body "place_s"))

let test_health_and_stats () =
  with_server (fun server ->
      let h = request server ~meth:"GET" "/healthz" in
      Alcotest.(check int) "healthz" 200 h.Client.status;
      let s = request server ~meth:"GET" "/stats" in
      Alcotest.(check int) "stats" 200 s.Client.status;
      Alcotest.(check bool) "stats shape" true (contains s.Client.body "\"cache\":"))

(* ---------- 4xx matrix ---------- *)

let test_client_errors () =
  let config =
    {
      Server.default_config with
      Server.limits = { Http.default_limits with Http.max_body_bytes = 4096 };
    }
  in
  with_server ~config (fun server ->
      let check_status what expect (r : Client.response) =
        Alcotest.(check int) what expect r.Client.status;
        Alcotest.(check bool)
          (what ^ " structured") true
          (contains r.Client.body "\"status\":\"error\"")
      in
      check_status "garbage design" 400 (request server ~body:"garbage" "/remap");
      check_status "bad deadline" 400
        (request server ~body:(Lazy.force tiny_text) "/remap?deadline=banana");
      check_status "oversized deadline" 400
        (request server ~body:(Lazy.force tiny_text) "/remap?deadline=1e9");
      check_status "bad mode" 400
        (request server ~body:(Lazy.force tiny_text) "/remap?mode=melt");
      check_status "unknown endpoint" 404 (request server ~meth:"GET" "/nope");
      check_status "bad method" 405 (request server ~meth:"PUT" "/remap");
      check_status "oversized body" 413
        (request server ~body:(String.make 8192 'x') "/remap");
      (* Truncated mapping section parses as a mapping error, not a
         design error, and never kills the worker. *)
      let broken = Lazy.force tiny_text ^ "agingfp-mapping v1\ncontexts 4\n" in
      check_status "truncated mapping" 400 (request server ~body:broken "/remap");
      (* The server is still healthy after the whole barrage. *)
      let ok = request server ~body:(Lazy.force tiny_text) "/remap?deadline=5" in
      Alcotest.(check int) "still serving" 200 ok.Client.status)

(* ---------- 429 shedding at capacity ---------- *)

let test_shedding () =
  let config =
    {
      Server.default_config with
      Server.workers = 1;
      queue_capacity = 1;
      limits = { Http.default_limits with Http.read_timeout_s = 0.5 };
    }
  in
  with_server ~config (fun server ->
      (* Two idle connections: the first parks the lone worker in its
         read budget, the second fills the queue. *)
      let idle () =
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
        fd
      in
      let a = idle () in
      Thread.delay 0.15;
      let b = idle () in
      Thread.delay 0.15;
      let shed = request server ~meth:"GET" "/healthz" in
      Alcotest.(check int) "shed with 429" 429 shed.Client.status;
      (match Client.header "retry-after" shed with
      | Some v ->
        Alcotest.(check bool) "retry-after positive" true (int_of_string v >= 1)
      | None -> Alcotest.fail "429 without Retry-After");
      Unix.close a;
      Unix.close b;
      (* The idle sockets 408 out of the worker within its read budget;
         afterwards the server accepts work again. *)
      Thread.delay 0.8;
      let ok = request server ~meth:"GET" "/healthz" in
      Alcotest.(check int) "recovers after shed" 200 ok.Client.status)

(* ---------- SIGTERM drain ---------- *)

let test_sigterm_drain () =
  let server = Server.create ~config:{ Server.default_config with Server.port = 0 } () in
  let previous =
    Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> Server.request_stop server))
  in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigterm previous)
    (fun () ->
      let th = Thread.create Server.run server in
      let port = Server.port server in
      let r =
        match
          Client.request ~body:(Lazy.force tiny_text) ~host:"127.0.0.1" ~port
            "/remap?deadline=5"
        with
        | Ok r -> r
        | Error msg -> Alcotest.failf "pre-drain request failed: %s" msg
      in
      Alcotest.(check int) "served before drain" 200 r.Client.status;
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      (* [run] returning proves the drain: acceptor gone, queue empty,
         every worker domain joined, pool deregistered. *)
      Thread.join th;
      match
        Client.request ~timeout_s:2.0 ~meth:"GET" ~host:"127.0.0.1" ~port "/healthz"
      with
      | Error _ -> ()
      | Ok r ->
        (* A connection that raced the drain may still be answered —
           but only with the draining 503, never with service. *)
        Alcotest.(check int) "post-drain refusal" 503 r.Client.status)

(* ---------- fault injection: audit-clean under every class ---------- *)

let test_fault_worker_raise () =
  with_server (fun server ->
      Inject.with_spec
        { Inject.none with Inject.seed = 7; p_worker_raise = 1.0 }
        (fun () ->
          let r = request server ~body:(Lazy.force tiny_text) "/remap?deadline=5" in
          Alcotest.(check int) "injected raise -> 500" 500 r.Client.status;
          Alcotest.(check bool) "names the injection" true (contains r.Client.body "injected");
          Alcotest.(check bool)
            "no floorplan shipped" false
            (contains r.Client.body "\"mapping\""));
      (* The worker survived its own explosion. *)
      let r = request server ~body:(Lazy.force tiny_text) "/remap?deadline=5" in
      Alcotest.(check int) "serves after the raise" 200 r.Client.status;
      Alcotest.(check bool) "audited" true (contains r.Client.body "\"audit_ok\":true"))

let test_fault_cache_poison () =
  with_server (fun server ->
      let body = Lazy.force tiny_text in
      let warmup = request server ~body "/remap?deadline=5" in
      Alcotest.(check int) "warmup" 200 warmup.Client.status;
      Inject.with_spec
        { Inject.none with Inject.seed = 7; p_cache_poison = 1.0 }
        (fun () ->
          (* The checked-out entry is corrupted; the server must detect
             the digest mismatch, discard it and solve cold — response
             indistinguishable from a miss, and still audited. *)
          let r = request server ~body "/remap?deadline=5" in
          Alcotest.(check int) "poisoned hit still serves" 200 r.Client.status;
          Alcotest.(check bool) "audited" true (contains r.Client.body "\"audit_ok\":true");
          Alcotest.(check (option string))
            "poisoned entry discarded" (Some "miss")
            (Client.header "x-agingfp-cache" r);
          let s = request server ~meth:"GET" "/stats" in
          Alcotest.(check bool)
            "poison detection counted" true
            (contains s.Client.body "\"poisoned\":1")))

let test_fault_mid_deadline () =
  with_server (fun server ->
      Inject.with_spec
        { Inject.none with Inject.seed = 7; p_mid_deadline = 1.0 }
        (fun () ->
          (* The remaining budget collapses to ~0 just before the
             solve: it must fall through to the audited baseline and
             report the degradation honestly — never hang, never ship
             an unaudited floorplan. *)
          let r = request server ~body:(Lazy.force tiny_text) "/remap?deadline=5" in
          Alcotest.(check int) "deadline-forced baseline -> 503" 503 r.Client.status;
          Alcotest.(check bool) "audited" true (contains r.Client.body "\"audit_ok\":true");
          Alcotest.(check bool) "baseline rung" true
            (contains r.Client.body "\"rung\":\"baseline\"");
          Alcotest.(check bool)
            "degradation trail present" true
            (contains r.Client.body "\"degradation\":[{");
          match Client.header "retry-after" r with
          | Some _ -> ()
          | None -> Alcotest.fail "degraded 503 without Retry-After"))

let test_fault_slow_loris () =
  let config =
    {
      Server.default_config with
      Server.limits = { Http.default_limits with Http.read_timeout_s = 0.3 };
    }
  in
  with_server ~config (fun server ->
      let r =
        request server ~body:(Lazy.force tiny_text) ~slow_write_delay_s:0.02
          "/remap?deadline=5"
      in
      Alcotest.(check int) "slow-loris cut off with 408" 408 r.Client.status;
      (* The dawdling client never occupied the worker past its budget:
         a prompt client is served immediately afterwards. *)
      let ok = request server ~meth:"GET" "/healthz" in
      Alcotest.(check int) "healthy after slow-loris" 200 ok.Client.status)

let () =
  Alcotest.run "serve"
    [
      ( "loopback",
        [
          Alcotest.test_case "remap round trip + warm cache" `Quick test_round_trip;
          Alcotest.test_case "health and stats" `Quick test_health_and_stats;
        ] );
      ("errors", [ Alcotest.test_case "4xx matrix" `Quick test_client_errors ]);
      ("overload", [ Alcotest.test_case "429 shedding at capacity" `Quick test_shedding ]);
      ("drain", [ Alcotest.test_case "SIGTERM" `Quick test_sigterm_drain ]);
      ( "faults",
        [
          Alcotest.test_case "worker raise" `Quick test_fault_worker_raise;
          Alcotest.test_case "cache poisoning" `Quick test_fault_cache_poison;
          Alcotest.test_case "mid-request deadline" `Quick test_fault_mid_deadline;
          Alcotest.test_case "slow loris" `Quick test_fault_slow_loris;
        ] );
    ]
