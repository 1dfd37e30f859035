(* Host-speed probe.

   On the shared 2-vCPU VM the benchmark was written on, code that
   allocates and multiplies (the field arithmetic, the simulator) runs up
   to about 1.8x slower while other tenants are busy. The host switches
   between a fast and a slow state many times a second, and the share of
   slow time drifts over minutes, on both vCPUs at once; a loop that only
   shifts registers does not move. Wall and CPU times of the same code
   then spread by 0.2-0.3 between runs.

   So a run also times a fixed loop of the benchmark's own, interleaved
   with the measured work (after every handshake, before every simulator
   execution and set-up) while nothing else of the benchmark runs. Each
   wall time an end-to-end metric reports is multiplied by [wall_scale],
   [reference_ms] over the loop's mean wall time in the run, and each CPU
   time by [cpu_scale], the same over its mean CPU time: time the VM is
   descheduled (steal) lengthens wall time only. The figures then read as
   on this host at a fixed speed. The loop never calls the program, so a
   faster program still reads faster; the raw figures are printed beside
   the result. *)

(* hash-table inserts of fresh strings (allocation, cache traffic) and
   16-limb schoolbook products (integer multiplies) *)
let kernel () =
  let h = Hashtbl.create 1024 in
  for i = 1 to 7_000 do
    Hashtbl.replace h (i * 7919 land 4095) (string_of_int i)
  done;
  let a = Array.init 16 (fun i -> ((i * 2654435761) + 12345) land 0x3FFFFFFF) in
  let s = ref (Hashtbl.length h) in
  for _ = 1 to 700 do
    let r = Array.make 32 0 in
    for i = 0 to 15 do
      for j = 0 to 15 do
        r.(i + j) <- (r.(i + j) + (a.(i) * a.(j))) land 0x3FFFFFFFFFFF
      done
    done;
    s := !s + r.(17);
    a.(!s land 15) <- r.(!s land 31) land 0x3FFFFFFF
  done;
  !s

(* a fixed constant, about the loop's time on that VM when no other
   tenant is busy *)
let reference_ms = 2.0

type t = { mutable runs : int; mutable wall_ms : float; mutable cpu_ms : float }

let create () = { runs = 0; wall_ms = 0.0; cpu_ms = 0.0 }

(* Times one run of the loop; returns the wall seconds it took. *)
let sample t =
  let t0 = Stats.now () and c0 = Stats.cpu_s () in
  ignore (Sys.opaque_identity (kernel ()));
  let dt = Stats.now () -. t0 in
  t.runs <- t.runs + 1;
  t.wall_ms <- t.wall_ms +. (dt *. 1000.0);
  t.cpu_ms <- t.cpu_ms +. ((Stats.cpu_s () -. c0) *. 1000.0);
  dt

let mean t total = if t.runs = 0 then reference_ms else total /. float_of_int t.runs
let mean_wall_ms t = mean t t.wall_ms
let mean_cpu_ms t = mean t t.cpu_ms

(* the factors for every wall time and every CPU time of the run *)
let wall_scale t = reference_ms /. mean_wall_ms t
let cpu_scale t = reference_ms /. mean_cpu_ms t
