(* PEACE end-to-end benchmark.

   peacebench --workload W --seed N --seconds S --trace 0|1

   Workloads:
   - light_clean: [light] params, empty URL, closed loop, 1 client. The
     common case; G1 scalar multiplication and point decoding dominate.
   - city_sim: the [peace simulate city] scenario. ECDSA, the event engine
     and scenario glue dominate; light_clean never runs this code.

   Untraced runs print the end-to-end metrics, their times at the fixed
   host speed of {!Host_speed}; [--trace 1] runs the timed
   phase half untraced, half traced, and prints the per-layer ledger. The
   last line of standard output is one JSON object holding the metrics
   BENCHMARK.json (read from the working directory) declares. The exit
   code is 0 only when every correctness check passed. *)

open Peace_core
module Registry = Peace_obs.Registry

type workload = Light_clean | City_sim

let workload_name = function
  | Light_clean -> "light_clean"
  | City_sim -> "city_sim"

let workload_of_string s =
  List.find_opt (fun w -> workload_name w = s) [ Light_clean; City_sim ]

(* A deliberately corrupted input, for the self-check: the run must fail. *)
type corrupt = No_corruption | Corrupt_signature | Corrupt_city

type opts = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  corrupt : corrupt;
  tiny : bool;  (* run light_clean at [tiny] params (self-check) *)
  setups : int option;  (* set-ups per run of light_clean *)
}

(* Set-ups per run of light_clean unless [--setups] says otherwise:
   [setup_s] is their median. *)
let auth_setups = 5

(* Set-ups timed before each [city_sim] execution (about 0.2 s each, 4 s
   per execution): [setup_s] is the median over the run. *)
let city_setups = 3

(* ---- result assembly ---- *)

type result = {
  mutable correct : bool;
  mutable problems : string list;
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float * string) list;  (* name, value, unit *)
}

let check r ok what = if not ok then begin r.correct <- false; r.problems <- what :: r.problems end
let metric r name unit value = r.metrics <- (name, value, unit) :: r.metrics

(* The end-to-end times of an untraced run, raw on a line of their own and
   as metrics at the fixed host speed of {!Host_speed}. *)
let report_times r speed ~rps ~p50 ~p90 ~cpu ~setup =
  let k = Host_speed.wall_scale speed and kc = Host_speed.cpu_scale speed in
  Printf.printf
    "raw: auth_rps %.4f, auth_p50_ms %.3f, auth_p90_ms %.3f, cpu_ms_per_auth %.3f, \
     setup_s %.4f; probe loop %.3f ms wall, %.3f ms CPU over %d runs\n"
    rps p50 p90 cpu setup (Host_speed.mean_wall_ms speed) (Host_speed.mean_cpu_ms speed)
    speed.Host_speed.runs;
  metric r "auth_rps" "1/s" (rps /. k);
  metric r "auth_p50_ms" "ms" (p50 *. k);
  metric r "auth_p90_ms" "ms" (p90 *. k);
  metric r "cpu_ms_per_auth" "ms" (cpu *. kc);
  metric r "setup_s" "s" (setup *. k)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

(* The metrics a run prints, in order, with their units: BENCHMARK.json's
   [end_to_end] list for an untraced run, its [per_layer] list for a
   traced one. *)
let declared_metrics ~trace =
  let module J = Peace_obs.Obs_json in
  let bad what = failwith ("BENCHMARK.json: " ^ what) in
  let field key j = match J.member key j with Some v -> v | None -> bad ("no " ^ key) in
  let str key j = match J.to_str (field key j) with Some s -> s | None -> bad key in
  let text =
    try In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all
    with Sys_error e -> bad e
  in
  match J.parse text with
  | Error e -> bad e
  | Ok spec -> (
    match J.to_list (field (if trace then "per_layer" else "end_to_end") spec) with
    | Some l -> List.map (fun m -> (str "name" m, str "unit" m)) l
    | None -> bad "metric list")

(* Prints the declared metrics in order. A per-layer metric the workload
   does not exercise (service spans in the simulator, sim events in
   light_clean) reads 0. *)
let print_result r ~declared =
  List.iter
    (fun (name, _, unit) ->
      match List.assoc_opt name declared with
      | Some u when u = unit -> ()
      | _ -> failwith (Printf.sprintf "metric %s [%s] is not in BENCHMARK.json" name unit))
    r.metrics;
  let metrics =
    List.map
      (fun (name, unit) ->
        let v =
          List.find_map (fun (n, v, _) -> if n = name then Some v else None) r.metrics
        in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number (Option.value ~default:0.0 v)) unit)
      declared
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed (String.concat ", " metrics)

(* ---- inputs generated from the seed ---- *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* ---- light_clean ---- *)

(* members of the deployment; the client picks one per handshake *)
let n_users = 4

(* A timed window of light_clean. *)
type window = {
  w_wall : float;  (* start to the last handshake's end, less the probe's time *)
  w_client_cpu : float;
  w_client_ctr : (string * int) list * (string * int) list;  (* before, after *)
  w_tally : Client.tally;
  w_marks : int * int;  (* server snapshots at the start and after the end *)
}

let run_auth o r ~speed =
  let params =
    Lazy.force (if o.tiny then Peace_pairing.Params.tiny else Peace_pairing.Params.light)
  in
  let deploy_seed = Printf.sprintf "peacebench-%d" o.seed in
  let spec = { Server.params; deploy_seed; n_users } in
  let traced = ref false in
  (* one set-up: deployment, key issue and server start in the child, the
     client's own deployment here, up to the first accepted handshake *)
  let setup_once () =
    let t0 = Stats.now () in
    let pending = Server.spawn spec in
    let tb = Peace_service.Testbed.make ~params ~seed:deploy_seed ~n_users () in
    match Server.await_ready pending with
    | Error e -> failwith ("server: " ^ e)
    | Ok srv ->
      let ctx =
        { Client.config = tb.Peace_service.Testbed.tb_config;
          gpk = Deployment.gpk tb.Peace_service.Testbed.tb_deployment; traced }
      in
      let conn =
        { Client.fd = Client.connect srv.Server.port;
          users = Array.of_list tb.Peace_service.Testbed.tb_users;
          rng = Random.State.make [| o.seed; 2 |] }
      in
      let first = Client.handshake ctx conn.Client.fd conn.Client.users.(0) in
      let dt = Stats.now () -. t0 in
      check r (first = Client.Ok_session) "first handshake after set-up was not accepted";
      (srv, ctx, conn, dt)
  in
  let rec setups k acc =
    ignore (Host_speed.sample speed);
    let ((srv, _, conn, dt) as s) = setup_once () in
    if k <= 1 then (s, dt :: acc)
    else begin
      Peace_sock.close_noerr conn.Client.fd;
      Server.quit srv;
      setups (k - 1) (dt :: acc)
    end
  in
  let (srv, ctx, conn, _), setup_times =
    setups (max 1 (Option.value ~default:auth_setups o.setups)) []
  in
  Fun.protect ~finally:(fun () -> Peace_sock.close_noerr conn.Client.fd) @@ fun () ->
  (* correctness probes on the connection the timed phase uses *)
  let probe what expect u tamper =
    match Client.handshake ~tamper ctx conn.Client.fd u with
    | Client.Failed kind -> check r (kind = expect) (Printf.sprintf "%s: got %s" what kind)
    | Client.Ok_session -> check r (expect = "ok") (what ^ ": accepted")
  in
  let u = conn.Client.users.(0) in
  probe "honest handshake" "ok" u Client.Honest;
  probe "flipped signature byte" "reject:invalid-group-signature" u Client.Flip_signature_byte;
  (* the self-check's corrupted input: one timed request carries a flipped
     signature byte; an honest client's request is never refused as
     invalid, so the run must fail *)
  let tamper_next = ref (o.corrupt = Corrupt_signature) in
  let marks = ref 0 in
  let mark () =
    Server.command srv "M";
    incr marks;
    !marks - 1
  in
  let run_window seconds =
    let before = Registry.counters () in
    let t0 = Stats.now () in
    let until = t0 +. seconds in
    let first_mark = mark () and cpu0 = Stats.cpu_s () in
    let tamper () =
      if !tamper_next then (tamper_next := false; Client.Flip_signature_byte)
      else Client.Honest
    in
    let between () = Host_speed.sample speed in
    let tally = Client.closed_loop ~tamper ~between ctx conn ~until in
    let wall = Stats.now () -. t0 -. tally.Client.between_s in
    let last_mark = mark () in
    { w_wall = wall; w_client_cpu = Stats.cpu_s () -. cpu0 -. tally.Client.between_s;
      w_client_ctr = (before, Registry.counters ()); w_tally = tally;
      w_marks = (first_mark, last_mark) }
  in
  let client_profile = Peace_obs.Profile.create () in
  let windows =
    if not o.trace then [ run_window o.seconds ]
    else begin
      let plain = run_window (o.seconds /. 2.0) in
      Server.command srv "T";
      Peace_obs.Profile.install client_profile;
      traced := true;
      let w = run_window (o.seconds /. 2.0) in
      traced := false;
      Peace_obs.Profile.uninstall ();
      [ plain; w ]
    end
  in
  let report = Server.finish srv in
  let snap i = List.nth report.Server.snapshots i in
  let server_delta (m0, m1) =
    let cpu0, c0 = snap m0 and cpu1, c1 = snap m1 in
    (cpu1 -. cpu0, c0, c1)
  in
  List.iter
    (fun w ->
      let _, c0, c1 = server_delta w.w_marks in
      let confirms = Stats.counter_delta ~before:c0 ~after:c1 "service.confirms_total" in
      check r (confirms = w.w_tally.Client.ok)
        (Printf.sprintf "server confirmed %d, client installed %d sessions" confirms
           w.w_tally.Client.ok))
    windows;
  let all = Client.merge (List.map (fun w -> w.w_tally) windows) in
  r.attempted <- all.Client.attempted;
  r.failed <- all.Client.attempted - all.Client.ok;
  check r (all.Client.ok > 0) "no handshake succeeded";
  (* an honest client's handshake never fails: each failure is counted in
     [failed] and also fails the run *)
  List.iter
    (fun (kind, n) ->
      Printf.printf "failures: %-40s %d\n" kind n;
      check r false (Printf.sprintf "honest requests failed: %s x%d" kind n))
    all.Client.failures;
  let cpu_ms_per_auth w =
    let server_cpu, _, _ = server_delta w.w_marks in
    (w.w_client_cpu +. server_cpu) *. 1000.0 /. float_of_int (max 1 w.w_tally.Client.ok)
  in
  let first = List.hd windows in
  if not o.trace then begin
    let lat = first.w_tally.Client.latencies_ms in
    let rps = float_of_int first.w_tally.Client.ok /. first.w_wall in
    let p50 = Stats.quantile lat 0.5 and p90 = Stats.quantile lat 0.9 in
    let cpu = cpu_ms_per_auth first and setup = Stats.median setup_times in
    Printf.printf "%s: %d/%d ok in %.2f s, %d latency samples\n" (workload_name o.workload)
      first.w_tally.Client.ok first.w_tally.Client.attempted first.w_wall (List.length lat);
    report_times r speed ~rps ~p50 ~p90 ~cpu ~setup;
    metric r "peak_rss_mb" "MB" report.Server.rss_mb
  end
  else begin
    let w = List.nth windows 1 in
    let okb = float_of_int (max 1 w.w_tally.Client.ok) in
    let server_cpu, s0, s1 = server_delta w.w_marks in
    let units = Units.measure ~params ~seed:deploy_seed in
    Ledger.auth ~metric:(metric r) ~units ~ctx ~ok:okb
      ~plain_cpu_per_auth:(cpu_ms_per_auth first)
      ~client_cpu:w.w_client_cpu ~server_cpu
      ~client_ctr:w.w_client_ctr ~server_ctr:(s0, s1)
      ~client_spans:(Stats.span_totals client_profile) ~server_spans:report.Server.spans
      ~all
      ~captured:(Client.captured ())
  end

(* ---- city simulation ---- *)

let city ~seed =
  Peace_sim.Scenario.city_auth ~seed ~n_routers:4 ~n_users:20 ~area_m:1500.0
    ~range_m:600.0 ~duration_ms:60_000 ~mean_interarrival_ms:10_000.0 ()

let run_city o r ~speed =
  let expected = City_expected.table in
  let order = shuffle (Random.State.make [| o.seed; 3 |]) (Array.of_list expected) in
  (* the scenario's own set-up — deployment, enrolment, placement — with
     nothing to simulate, timed [city_setups] times before every execution
     of the window: the set-ups then sample the host over the whole run, as
     the executions do, instead of over its first seconds *)
  let setup_times = ref [] in
  let setup cseed =
    let t0 = Stats.now () in
    ignore
      (Peace_sim.Scenario.city_auth ~seed:cseed ~n_routers:4 ~n_users:20 ~area_m:1500.0
         ~range_m:600.0 ~duration_ms:0 ~mean_interarrival_ms:10_000.0 ());
    setup_times := (Stats.now () -. t0) :: !setup_times
  in
  let next = ref 0 in
  let exec_one () =
    let (cseed, e) = order.(!next mod Array.length order) in
    incr next;
    for _ = 1 to city_setups do
      ignore (Host_speed.sample speed);
      setup cseed
    done;
    ignore (Host_speed.sample speed);
    let ctr0 = Registry.counters () and cpu0 = Stats.cpu_s () and t0 = Stats.now () in
    let res = city ~seed:cseed in
    let wall = Stats.now () -. t0 in
    let got =
      { City_expected.attempts = res.Peace_sim.Scenario.cr_attempts;
        successes = res.Peace_sim.Scenario.cr_successes;
        bytes_on_air = res.Peace_sim.Scenario.cr_bytes_on_air;
        handshake_mean_ms = res.Peace_sim.Scenario.cr_handshake_mean_ms }
    in
    let e =
      if o.corrupt = Corrupt_city then { e with City_expected.successes = e.City_expected.successes + 1 }
      else e
    in
    check r (got = e)
      (Printf.sprintf "city seed %d: got %s, recorded %s" cseed (City_expected.to_string got)
         (City_expected.to_string e));
    r.attempted <- r.attempted + got.City_expected.attempts;
    (* the scenario's own failure classes; attempts still in flight when
       the simulated minute ends are neither successes nor failures *)
    r.failed <- r.failed + List.fold_left (fun a (_, n) -> a + n) 0 res.Peace_sim.Scenario.cr_failures;
    (wall, Stats.cpu_s () -. cpu0, got.City_expected.successes, (ctr0, Registry.counters ()))
  in
  let run_window seconds =
    let t0 = Stats.now () in
    (* whole executions only: another one starts when ending after it
       lands closer to [seconds] than stopping now *)
    let rec go acc last =
      let start = Stats.now () in
      let elapsed = start -. t0 in
      if acc <> [] && elapsed +. last -. seconds >= seconds -. elapsed then List.rev acc
      else begin
        let e = exec_one () in
        go (e :: acc) (Stats.now () -. start)
      end
    in
    go [] 0.0
  in
  let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l in
  let per_auth execs =
    let ok = sum (fun (_, _, s, _) -> float_of_int s) execs in
    (sum (fun (w, _, _, _) -> w) execs, sum (fun (_, c, _, _) -> c) execs, ok)
  in
  if not o.trace then begin
    let execs = run_window o.seconds in
    ignore (Host_speed.sample speed);
    let wall, cpu, ok = per_auth execs in
    let ms_per_auth =
      List.map (fun (w, _, s, _) -> w *. 1000.0 /. float_of_int (max 1 s)) execs
    in
    Printf.printf "city_sim: %d executions, %.0f handshakes in %.2f s\n" (List.length execs) ok wall;
    (* a median over executions, as the latencies are: the scenario seeds a
       run draws differ in cost per handshake, so a ratio of sums would
       move with the draw *)
    report_times r speed
      ~rps:(Stats.median (List.map (fun (w, _, s, _) -> float_of_int s /. w) execs))
      ~p50:(Stats.quantile ms_per_auth 0.5) ~p90:(Stats.quantile ms_per_auth 0.9)
      ~cpu:(cpu *. 1000.0 /. ok) ~setup:(Stats.median !setup_times);
    metric r "peak_rss_mb" "MB" (Stats.peak_rss_mb ())
  end
  else begin
    let plain = run_window (o.seconds /. 2.0) in
    let profile = Peace_obs.Profile.create () in
    Peace_obs.Profile.install profile;
    let traced = run_window (o.seconds /. 2.0) in
    Peace_obs.Profile.uninstall ();
    let pw, _, pok = per_auth plain and tw, _, tok = per_auth traced in
    let ctr_before = match traced with (_, _, _, (b, _)) :: _ -> b | [] -> [] in
    let ctr_after = match List.rev traced with (_, _, _, (_, a)) :: _ -> a | [] -> [] in
    let units =
      Units.measure ~params:(Lazy.force Peace_pairing.Params.tiny)
        ~seed:(Printf.sprintf "peacebench-%d" o.seed)
    in
    Ledger.city ~metric:(metric r) ~units ~ok:tok ~wall:tw
      ~plain_ms_per_auth:(pw *. 1000.0 /. pok) ~ctr:(ctr_before, ctr_after)
      ~spans:(Stats.span_totals profile) ~attempted:(float_of_int r.attempted) ~ok_all:(pok +. tok)
  end

(* ---- command line ---- *)

let usage () =
  prerr_endline
    "usage: peacebench --workload light_clean|city_sim --seed N \
     --seconds S --trace 0|1 [--setups K] [--tiny] [--corrupt sig|city]";
  exit 2

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref 10.0 and trace = ref false in
  let corrupt = ref No_corruption and tiny = ref false and setups = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := workload_of_string w; go rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; go rest
    | "--seconds" :: s :: rest ->
      seconds := Option.value ~default:(-1.0) (float_of_string_opt s); go rest
    | "--trace" :: t :: rest -> trace := t = "1"; go rest
    | "--setups" :: k :: rest -> setups := int_of_string_opt k; go rest
    | "--tiny" :: rest -> tiny := true; go rest
    | "--corrupt" :: "sig" :: rest -> corrupt := Corrupt_signature; go rest
    | "--corrupt" :: "city" :: rest -> corrupt := Corrupt_city; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed) with
  | Some workload, Some seed when !seconds > 0.0 ->
    { workload; seed; seconds = !seconds; trace = !trace; corrupt = !corrupt; tiny = !tiny;
      setups = !setups }
  | _ -> usage ()

(* prints the recorded-outcome table of [City_expected] for seeds 1..n *)
let record_city n =
  print_string "let table : (int * outcome) list =\n  [\n";
  for seed = 1 to n do
    let r = city ~seed in
    Printf.printf
      "    (%d, { attempts = %d; successes = %d; bytes_on_air = %d; handshake_mean_ms = %h });\n%!"
      seed r.Peace_sim.Scenario.cr_attempts r.Peace_sim.Scenario.cr_successes
      r.Peace_sim.Scenario.cr_bytes_on_air r.Peace_sim.Scenario.cr_handshake_mean_ms
  done;
  print_string "  ]\n"

let () =
  (match Array.to_list Sys.argv with
  | [ _; "--record-city"; n ] -> record_city (int_of_string n); exit 0
  | _ -> ());
  let o = parse Sys.argv in
  let declared = declared_metrics ~trace:o.trace in
  let r = { correct = true; problems = []; attempted = 0; failed = 0; metrics = [] } in
  (* probed in traced runs too, so both run the same work; only the
     end-to-end metrics are scaled *)
  let speed = Host_speed.create () in
  (match o.workload with
  | City_sim -> run_city o r ~speed
  | Light_clean -> run_auth o r ~speed);
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) (List.rev r.problems);
  print_result r ~declared;
  exit (if r.correct then 0 else 1)
