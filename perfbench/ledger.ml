(* The per-layer ledger of a traced run. Every row that has a lower layer
   prints measured, predicted (operation counts times the unit costs of
   the layer below) and the residual between them; the L0/L1 unit costs
   are the base of those predictions and are also given in Mont.mul units
   of their own field, the only figures comparable across machines. *)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Span rows come from {!Stats.span_totals}: name -> (count, total_ns,
   self_ns); a span that never ran reads 0. *)
let find spans name = Option.value ~default:(0, 0, 0) (List.assoc_opt name spans)

let mean_ms spans name =
  let count, total, _ = find spans name in
  if count = 0 then 0.0 else float_of_int total /. float_of_int count /. 1e6

let self_mean_ms spans name =
  let count, _, self = find spans name in
  if count = 0 then 0.0 else float_of_int self /. float_of_int count /. 1e6

let total_ms spans name =
  let _, total, _ = find spans name in
  float_of_int total /. 1e6

let print_row name ~measured ?predicted unit =
  match predicted with
  | Some p ->
    Printf.printf "  %-34s %12.4f %12.4f %12.4f  %s\n" name measured p (measured -. p) unit
  | None -> Printf.printf "  %-34s %12.4f %12s %12s  %s\n" name measured "-" "-" unit

let header title =
  Printf.printf "%s\n  %-34s %12s %12s %12s  %s\n" title "row" "measured" "predicted"
    "residual" "unit"

(* ops per handshake from a (before, after) registry counter pair *)
let ops_per_auth (before, after) ~ok ~g1_decodes =
  let d name = float_of_int (Stats.counter_delta ~before ~after name) /. ok in
  {
    Units.pairings = d "pairing.ops";
    g1_muls = d "pairing.exp_g1";
    gt_exps = d "pairing.exp_gt";
    hashes_to_g1 = d "pairing.hash_to_g1";
    ec_scalar_muls = d "ec.scalar_mul";
    g1_decodes;
  }

let add_ops (a : Units.ops) (b : Units.ops) =
  {
    Units.pairings = a.pairings +. b.pairings;
    g1_muls = a.g1_muls +. b.g1_muls;
    gt_exps = a.gt_exps +. b.gt_exps;
    hashes_to_g1 = a.hashes_to_g1 +. b.hashes_to_g1;
    ec_scalar_muls = a.ec_scalar_muls +. b.ec_scalar_muls;
    g1_decodes = a.g1_decodes +. b.g1_decodes;
  }

(* L0 and L1 unit costs, shared by every workload *)
let units_rows ~metric (u : Units.t) ~(ops : Units.ops) =
  header "L0 field arithmetic (Mont) and L1 groups: unit costs";
  let mont name (m : Units.mont) =
    metric (name ^ ".mont_mul_us") "us" m.Units.mul_us;
    metric (name ^ ".mont_sqr_us") "us" m.Units.sqr_us;
    metric (name ^ ".mont_inv_us") "us" m.Units.inv_us;
    print_row (name ^ ".mont_mul") ~measured:m.Units.mul_us "us";
    print_row (name ^ ".mont_sqr") ~measured:m.Units.sqr_us "us";
    print_row (name ^ ".mont_inv") ~measured:m.Units.inv_us "us"
  in
  mont "bigint.fp512" u.Units.fp512;
  mont "bigint.p160" u.Units.p160;
  metric "bigint.fp.mont_mul_us" "us" u.Units.fp.Units.mul_us;
  print_row "bigint.fp.mont_mul (workload field)" ~measured:u.Units.fp.Units.mul_us "us";
  let mont_units ms = ratio (ms *. 1000.0) u.Units.fp.Units.mul_us in
  let l1 name ms =
    metric ("pairing." ^ name ^ "_ms") "ms" ms;
    print_row ("pairing." ^ name) ~measured:ms "ms"
  in
  l1 "g1_mul" u.Units.g1_mul_ms;
  l1 "g1_decode" u.Units.g1_decode_ms;
  l1 "tate" u.Units.tate_ms;
  l1 "tate_product2" u.Units.tate_product2_ms;
  l1 "gt_pow" u.Units.gt_pow_ms;
  l1 "hash_to_g1" u.Units.hash_to_g1_ms;
  let ratio_row name ms =
    metric ("pairing." ^ name ^ "_mont_units") "mont_mul" (mont_units ms);
    print_row ("pairing." ^ name ^ " in Mont.mul") ~measured:(mont_units ms) "mont_mul"
  in
  ratio_row "tate" u.Units.tate_ms;
  ratio_row "tate_product2" u.Units.tate_product2_ms;
  ratio_row "g1_mul" u.Units.g1_mul_ms;
  ratio_row "g1_decode" u.Units.g1_decode_ms;
  ratio_row "gt_pow" u.Units.gt_pow_ms;
  metric "ec.scalar_mul_ms" "ms" u.Units.ec_scalar_mul_ms;
  metric "ec.ecdsa_verify_ms" "ms" u.Units.ecdsa_verify_ms;
  let ec_units = ratio (u.Units.ec_scalar_mul_ms *. 1000.0) u.Units.p160.Units.mul_us in
  metric "ec.scalar_mul_mont_units" "mont_mul" ec_units;
  print_row "ec.scalar_mul (secp160r1)" ~measured:u.Units.ec_scalar_mul_ms "ms";
  print_row "ec.ecdsa_verify (secp160r1)" ~measured:u.Units.ecdsa_verify_ms "ms";
  print_row "ec.scalar_mul in Mont.mul (p160)" ~measured:ec_units "mont_mul";
  header "operation counts per handshake (client + server)";
  let count name v =
    metric name "count" v;
    print_row name ~measured:v "count"
  in
  count "pairing.pairings_per_auth" ops.Units.pairings;
  count "pairing.g1_mul_per_auth" ops.Units.g1_muls;
  count "pairing.gt_exp_per_auth" ops.Units.gt_exps;
  count "pairing.hash_to_g1_per_auth" ops.Units.hashes_to_g1;
  count "pairing.g1_decode_per_auth" ops.Units.g1_decodes;
  count "ec.scalar_mul_per_auth" ops.Units.ec_scalar_muls

(* L2 group signature: sign/verify as measured in spans against the counted
   operations of one call times the unit costs *)
let groupsig_rows ~metric (u : Units.t) ~spans =
  header "L2 group signature (groupsig.* spans)";
  let sign = mean_ms spans "groupsig.sign" in
  let verify = mean_ms spans "groupsig.verify" in
  let proof = mean_ms spans "groupsig.proof_check" in
  let pred_sign = Units.predict_ms u (Units.ops_of_snapshot u.Units.sign_ops) in
  let pred_verify = Units.predict_ms u (Units.ops_of_snapshot u.Units.verify_ops) in
  let mont_units ms = ratio (ms *. 1000.0) u.Units.fp.Units.mul_us in
  metric "groupsig.sign_ms" "ms" sign;
  metric "groupsig.verify_ms" "ms" verify;
  metric "groupsig.proof_check_ms" "ms" proof;
  metric "groupsig.sig_decode_ms" "ms" u.Units.sig_decode_ms;
  metric "groupsig.predicted_sign_ms" "ms" pred_sign;
  metric "groupsig.sign_residual_ms" "ms" (if sign > 0.0 then sign -. pred_sign else 0.0);
  metric "groupsig.predicted_verify_ms" "ms" pred_verify;
  metric "groupsig.verify_residual_ms" "ms" (if verify > 0.0 then verify -. pred_verify else 0.0);
  metric "groupsig.sign_mont_units" "mont_mul" (mont_units u.Units.sign_ms);
  metric "groupsig.verify_mont_units" "mont_mul" (mont_units u.Units.verify_ms);
  print_row "groupsig.sign" ~measured:sign ~predicted:pred_sign "ms";
  print_row "groupsig.verify" ~measured:verify ~predicted:pred_verify "ms";
  print_row "groupsig.proof_check" ~measured:proof "ms";
  print_row "groupsig.sig_decode" ~measured:u.Units.sig_decode_ms "ms";
  print_row "groupsig.sign in Mont.mul (unit pass)" ~measured:(mont_units u.Units.sign_ms) "mont_mul";
  print_row "groupsig.verify in Mont.mul (unit pass)" ~measured:(mont_units u.Units.verify_ms)
    "mont_mul"

let bench_rows ~metric ~attempted ~ok ~overhead_pct =
  header "bench (the benchmark's own client)";
  metric "bench.attempted" "count" attempted;
  metric "bench.ok" "count" ok;
  metric "bench.fail_ratio" "ratio" (ratio (attempted -. ok) attempted);
  metric "bench.tracing_overhead_pct" "%" overhead_pct;
  print_row "bench.attempted" ~measured:attempted "count";
  print_row "bench.ok" ~measured:ok "count";
  print_row "bench.tracing_overhead" ~measured:overhead_pct "%"

(* light_clean: client and server processes over the traced window *)
let auth ~metric ~(units : Units.t) ~(ctx : Client.ctx) ~ok ~plain_cpu_per_auth
    ~client_cpu ~server_cpu ~client_ctr ~server_ctr ~client_spans ~server_spans
    ~(all : Client.tally) ~captured =
  (* points decoded per handshake, from the message layouts: the beacon
     carries g and g^rR (its URL is empty), the confirm two points (client);
     the access request g^rj, g^rR, T1, T2 (server) *)
  let client_ops = ops_per_auth client_ctr ~ok ~g1_decodes:4.0 in
  let server_ops = ops_per_auth server_ctr ~ok ~g1_decodes:4.0 in
  let ops = add_ops client_ops server_ops in
  units_rows ~metric units ~ops;
  groupsig_rows ~metric units ~spans:(client_spans @ server_spans);
  let beacon_bytes, request_bytes = captured in
  let gpk = ctx.Client.gpk and config = ctx.Client.config in
  let request_decode_ms =
    1000.0
    *. Stats.time_per_call ~reps:3 (fun () ->
           Peace_core.Messages.access_request_of_bytes config gpk request_bytes)
  in
  header "L3 protocol (benchmark spans around User / Messages calls)";
  let m = mean_ms client_spans in
  let pb = m "core.process_beacon" in
  let pred_pb = m "groupsig.sign" +. (client_ops.Units.ec_scalar_muls *. units.Units.ec_scalar_mul_ms) in
  metric "core.process_beacon_ms" "ms" pb;
  metric "core.predicted_process_beacon_ms" "ms" pred_pb;
  metric "core.process_beacon_residual_ms" "ms" (pb -. pred_pb);
  metric "core.beacon_decode_ms" "ms" (m "core.beacon_decode");
  metric "core.access_request_decode_ms" "ms" request_decode_ms;
  metric "core.process_confirm_ms" "ms" (m "core.process_confirm");
  metric "core.beacon_bytes" "B" (float_of_int (String.length beacon_bytes));
  metric "core.access_request_bytes" "B" (float_of_int (String.length request_bytes));
  print_row "core.process_beacon (sign + ECDSA)" ~measured:pb ~predicted:pred_pb "ms";
  print_row "core.beacon_decode"
    ~measured:(m "core.beacon_decode")
    ~predicted:(2.0 *. units.Units.g1_decode_ms)
    "ms";
  (* g^rj and g^rR, then the signature, whose decode covers T1 and T2 *)
  print_row "core.access_request_decode" ~measured:request_decode_ms
    ~predicted:((2.0 *. units.Units.g1_decode_ms) +. units.Units.sig_decode_ms) "ms";
  print_row "core.process_confirm" ~measured:(m "core.process_confirm") "ms";
  print_row "core.beacon_bytes" ~measured:(float_of_int (String.length beacon_bytes)) "B";
  print_row "core.access_request_bytes" ~measured:(float_of_int (String.length request_bytes)) "B";
  header "L4 service (server process) and client process, per handshake";
  let s = self_mean_ms server_spans in
  let round_trips = total_ms client_spans "bench.get_beacon" +. total_ms client_spans "bench.access" in
  (* what the client waits for beyond the server's codec and verify work:
     transport, frames, the router mutex and scheduling. The request span
     itself is no bound: its end can be delayed past the client's read by
     a preemption after the response is written. *)
  let server_work =
    List.fold_left (fun a n -> a +. total_ms server_spans n) 0.0
      [ "service.decode"; "service.verify"; "service.encode" ]
  in
  let wait = (round_trips -. server_work) /. ok in
  let server_ms = server_cpu *. 1000.0 /. ok and client_ms = client_cpu *. 1000.0 /. ok in
  let pred_server = Units.predict_ms units server_ops in
  let pred_client = Units.predict_ms units client_ops in
  let errors = Stats.counter_family (snd server_ctr) "service.errors_total"
               - Stats.counter_family (fst server_ctr) "service.errors_total" in
  metric "service.request_self_ms" "ms" (s "service.request");
  metric "service.decode_ms" "ms" (s "service.decode");
  metric "service.verify_self_ms" "ms" (s "service.verify");
  metric "service.encode_ms" "ms" (s "service.encode");
  metric "service.wait_ms" "ms" wait;
  metric "service.cpu_ms_per_auth" "ms" server_ms;
  metric "service.predicted_ms_per_auth" "ms" pred_server;
  metric "service.residual_ms_per_auth" "ms" (server_ms -. pred_server);
  metric "service.errors_total" "count" (float_of_int errors);
  metric "client.cpu_ms_per_auth" "ms" client_ms;
  metric "client.predicted_ms_per_auth" "ms" pred_client;
  metric "client.residual_ms_per_auth" "ms" (client_ms -. pred_client);
  print_row "service.request (self)" ~measured:(s "service.request") "ms";
  print_row "service.decode (self)" ~measured:(s "service.decode") "ms";
  print_row "service.verify (self)" ~measured:(s "service.verify") "ms";
  print_row "service.encode (self)" ~measured:(s "service.encode") "ms";
  print_row "service.wait (round trips - server work)" ~measured:wait "ms";
  print_row "service CPU per auth" ~measured:server_ms ~predicted:pred_server "ms";
  print_row "client CPU per auth" ~measured:client_ms ~predicted:pred_client "ms";
  print_row "service.errors_total (traced window)" ~measured:(float_of_int errors) "count";
  List.iter
    (fun (name, v) ->
      if fst (Peace_obs.Registry.split_name name) = "service.errors_total" then
        Printf.printf "    server error %s: %d (whole run)\n" name v)
    (snd server_ctr);
  let hs = m "bench.handshake" in
  let children =
    List.fold_left (fun a n -> a +. m n) 0.0
      [ "bench.get_beacon"; "core.beacon_decode"; "core.process_beacon";
        "core.access_request_encode"; "bench.access"; "core.access_confirm_decode";
        "core.process_confirm" ]
  in
  metric "bench.handshake_ms" "ms" hs;
  metric "bench.handshake_self_ms" "ms" (self_mean_ms client_spans "bench.handshake");
  header "bench.handshake (children: round trips, codecs, User calls)";
  print_row "bench.handshake" ~measured:hs ~predicted:children "ms";
  let traced_cpu_per_auth = server_ms +. client_ms in
  bench_rows ~metric
    ~attempted:(float_of_int all.Client.attempted)
    ~ok:(float_of_int all.Client.ok)
    ~overhead_pct:(100.0 *. ratio (traced_cpu_per_auth -. plain_cpu_per_auth) plain_cpu_per_auth)

(* the city simulation: one process, counters over the traced executions *)
let city ~metric ~(units : Units.t) ~ok ~wall ~plain_ms_per_auth ~ctr ~spans ~attempted ~ok_all =
  let ops = ops_per_auth ctr ~ok ~g1_decodes:0.0 in
  units_rows ~metric units ~ops;
  groupsig_rows ~metric units ~spans;
  let events =
    float_of_int (Stats.counter_delta ~before:(fst ctr) ~after:(snd ctr) "sim.engine.events_total")
  in
  let ms_per_auth = wall *. 1000.0 /. ok in
  (* point decodes inside the simulator are not counted, so they sit in
     the unattributed share *)
  let predicted = Units.predict_ms units ops in
  header "sim (engine + scenario), per handshake";
  metric "sim.events_per_auth" "count" (events /. ok);
  metric "sim.wall_us_per_event" "us" (ratio (wall *. 1e6) events);
  metric "sim.wall_ms_per_auth" "ms" ms_per_auth;
  metric "sim.predicted_ms_per_auth" "ms" predicted;
  metric "sim.unattributed_pct" "%" (100.0 *. ratio (ms_per_auth -. predicted) ms_per_auth);
  print_row "sim.events_per_auth" ~measured:(events /. ok) "count";
  print_row "sim.wall_us_per_event" ~measured:(ratio (wall *. 1e6) events) "us";
  print_row "sim wall per auth" ~measured:ms_per_auth ~predicted "ms";
  bench_rows ~metric ~attempted ~ok:ok_all
    ~overhead_pct:(100.0 *. ratio (ms_per_auth -. plain_ms_per_auth) plain_ms_per_auth)
