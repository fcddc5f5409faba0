(* Host-speed calibration of the benchmark's compute-bound times.

   On a shared host the same deterministic work (one design's solve,
   with the same LP iteration count every time) takes from 1x to 1.7x
   its best time, in stretches from a fraction of a second to minutes
   that the host's other tenants set, not the program. A fixed kernel
   that uses no code of the program (float array arithmetic, allocation
   and sorting, hashing) is timed right before and right after each
   compute-bound interval, and the interval is scaled to the speed at
   which the kernel takes [reference_s]. Over 14 back-to-back solves of
   one design this took the interquartile spread of its time from 0.26
   to 0.05 (B13) and from 0.16 to 0.10 (B17). Probes taken only at the
   start and the end of a run did not follow the host and were dropped.
   Work bounded by a deadline is not scaled: its time does not follow
   the host's speed. *)

let kernel () =
  let n = 60 in
  let a = Array.init (n * n) (fun i -> float_of_int (i mod 17) /. 7.0) in
  let c = Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let s = ref 0.0 in
      for k = 0 to n - 1 do
        s := !s +. (a.((i * n) + k) *. a.((k * n) + j))
      done;
      c.((i * n) + j) <- !s
    done
  done;
  let st = ref 12345 in
  let l =
    List.init 20_000 (fun _ ->
        st := ((!st * 1103515245) + 12345) land 0x3fffffff;
        !st)
  in
  let h = Hashtbl.create 1024 in
  List.iter (fun x -> Hashtbl.replace h (x land 0xffff) x) (List.sort compare l);
  ignore (Sys.opaque_identity (c, Hashtbl.length h))

(* The kernel's time on a quiet 2-core host of the kind the benchmark
   was sized on. *)
let reference_s = 0.010

let probes : float list ref = ref []

(* The median of three kernel times; every probe is kept for the run's
   report. *)
let probe () =
  let xs =
    Array.init 3 (fun _ ->
        let t0 = Unix.gettimeofday () in
        kernel ();
        Unix.gettimeofday () -. t0)
  in
  Array.sort Float.compare xs;
  probes := xs.(1) :: !probes;
  xs.(1)

(* The factor that takes seconds measured between probes [before] and
   [after] to seconds at the reference speed. *)
let scale ~before ~after = reference_s /. ((before +. after) /. 2.0)

let median_s () =
  let a = Array.of_list !probes in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
