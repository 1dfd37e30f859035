(* Order statistics and small helpers shared by the benchmark's modules. *)

let now = Unix.gettimeofday

(* Linear interpolation between closest ranks; [p] in [0, 1]. *)
let quantile values p =
  let a = Array.of_list values in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let rank = p *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    (a.(lo) *. (1.0 -. frac)) +. (a.(hi) *. frac)
  end

let median values = quantile values 0.5

(* user + system CPU seconds of this process, every domain included *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* peak resident set of this process in MiB, from /proc (0 elsewhere) *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
            (fun kb -> float_of_int kb /. 1024.0)
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* Seconds per call of [f]: calls are batched so each timed batch lasts
   about [batch_s]; the median of [reps] batches is returned. *)
let time_per_call ?(reps = 5) ?(batch_s = 0.03) f =
  let t0 = now () in
  ignore (Sys.opaque_identity (f ()));
  let first = max 1e-7 (now () -. t0) in
  let iters = max 1 (int_of_float (batch_s /. first)) in
  let batch () =
    let t0 = now () in
    for _ = 1 to iters do
      ignore (Sys.opaque_identity (f ()))
    done;
    (now () -. t0) /. float_of_int iters
  in
  median (List.init reps (fun _ -> batch ()))

let counter_value counters name =
  Option.value ~default:0 (List.assoc_opt name counters)

(* counters whose base name (before any label braces) is [base], summed *)
let counter_family counters base =
  List.fold_left
    (fun acc (name, v) ->
      if fst (Peace_obs.Registry.split_name name) = base then acc + v else acc)
    0 counters

let counter_delta ~before ~after name =
  counter_value after name - counter_value before name

(* Per span name, summed over every place the name occurs in a profile's
   call tree: (count, total_ns, self_ns). *)
let span_totals profile =
  let module Profile = Peace_obs.Profile in
  let by_name = Hashtbl.create 32 in
  let rec walk (n : Profile.node) =
    let count, total, self = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt by_name n.name) in
    Hashtbl.replace by_name n.name (count + n.count, total + n.total_ns, self + n.self_ns);
    List.iter walk n.children
  in
  List.iter walk (Profile.roots profile);
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) by_name []
