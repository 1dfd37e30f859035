open Peace_core
open Agent

type cost_model = {
  sign_ms : float;
  verify_base_ms : float;
  verify_per_token_ms : float;
  beacon_validate_ms : float;
  puzzle_check_ms : float;
}

let default_cost_model =
  {
    sign_ms = 40.0;
    verify_base_ms = 60.0;
    verify_per_token_ms = 9.0;
    beacon_validate_ms = 5.0;
    puzzle_check_ms = 0.02;
  }

(* the router's modelled time per (M.2), and the user's per beacon *)
let service_ms cost ~under_attack ~url_size =
  (if under_attack then cost.puzzle_check_ms else 0.0)
  +. cost.verify_base_ms
  +. (cost.verify_per_token_ms *. float_of_int url_size)

let sign_delay cost = ms (cost.beacon_validate_ms +. cost.sign_ms)

(* ------------------------------------------------------------------ *)
(* E9: city-scale authentication                                       *)
(* ------------------------------------------------------------------ *)

type city_result = {
  cr_attempts : int;
  cr_successes : int;
  cr_failures : (string * int) list;
  cr_handshake_mean_ms : float;
  cr_handshake_p95_ms : float;
  cr_time_to_auth_mean_ms : float;
  cr_bytes_on_air : int;
  cr_router_utilisation : float;
  cr_retransmissions : int;
  cr_timeouts : int;
  cr_failovers : int;
  cr_recovery_mean_ms : float;
  cr_fault_counters : (string * int) list;
  cr_invoices : (int * int * int * int) list;
  cr_alerts : (int * string * Peace_obs.Alert.state) list;
}

(* the unhardened path's single fixed handshake timeout *)
let legacy_timeout_ms = 3_000

let city_auth ?(seed = 42) ?(cost = default_cost_model) ?(area_m = 2000.0)
    ?(range_m = 450.0) ?(beacon_period_ms = 500) ?(url_size = 0)
    ?(loss_prob = 0.0) ?(faults = Faults.none) ?(hardened = true)
    ?(invoices = false) ?sampler ?(alert_rules = []) ~n_routers ~n_users
    ~duration_ms ~mean_interarrival_ms () =
  let world = make_world ~seed ~loss_prob ~faults ~members:n_users () in
  let until = Engine.now world.engine + duration_ms in
  (* alert rules evaluate on simulated time: the evaluator clock is the
     engine clock and an eval tick runs once per simulated second, so a
     given seed and fault plan produce the same firing sequence at the
     same sim timestamps on every run *)
  let alerts =
    match alert_rules with
    | [] -> None
    | rules ->
      let t =
        Peace_obs.Alert.create ~now:(fun () -> Engine.now world.engine) rules
      in
      Peace_obs.Alert.install_tap t;
      Engine.schedule_every world.engine ~period:1_000 ~until (fun () ->
          ignore (Peace_obs.Alert.eval t));
      Some t
  in
  (* retransmission jitter has its own stream: hardened but fault-free
     runs draw exactly the same placement/arrival sequence as before *)
  let retx_rand = Sim_rand.create ~seed:(seed lxor 0x0707) in
  pad_url world url_size;
  let user_base_addr = 10_000 in
  (* the staleness partition freezes the last router's revocation lists
     while user 0 gets revoked: every admission it still grants that user
     afterwards is a stale accept *)
  let stale_router_addr =
    match faults.Faults.stale_after_ms with
    | Some _ when n_routers > 0 -> n_routers - 1
    | _ -> -1
  in
  let revoked_addr = ref (-1) in
  (* routers on a rough grid, each with a session meter kept for §IV-D
     attribution after the run *)
  let routers =
    List.init n_routers (fun i ->
        let router = Deployment.add_router world.deployment ~router_id:i in
        if hardened then Mesh_router.enable_resend_cache router;
        let meter = if invoices then Some (Accounting.create_meter ()) else None in
        let node =
          router_node ?meter ~url_size
            ~service_ms:(service_ms cost ~under_attack:false ~url_size)
            ~addr:i ~pos:(grid_pos ~n:n_routers ~area:area_m i) router
        in
        serve world node ~on_accept:(fun sender ->
            if i = stale_router_addr && sender = !revoked_addr then begin
              Metrics.incr world.metrics "faults.stale_accepts";
              Faults.note_stale_accept ()
            end);
        node)
  in
  let timeout =
    if hardened then
      Retransmit { rand = retx_rand; avoid_ms = 2 * beacon_period_ms }
    else Fixed legacy_timeout_ms
  in
  let driver = driver ~delay_ms:(sign_delay cost) ~timeout () in
  (* users uniformly over the city *)
  let users =
    List.init n_users (fun i ->
        let user =
          add_member world
            ~uid:(Printf.sprintf "user-%d" i)
            ~name:(Printf.sprintf "User %d" i)
            ~national_id:(Printf.sprintf "nid-%d" i)
        in
        let node = user_node ~addr:(user_base_addr + i) user in
        attach world driver ~pos:(random_pos world area_m) node;
        node)
  in
  beacon_loop world ~period:beacon_period_ms ~range:range_m ~until routers;
  (* the staleness partition: freeze the designated router's lists, then
     revoke user 0 everywhere else — honest routers reject it from that
     point on, the partitioned router keeps admitting it *)
  let stale_lists = ref None in
  let restore_stale () =
    match !stale_lists with
    | None -> ()
    | Some (crl, url) ->
      Mesh_router.update_lists
        (mesh_router (List.nth routers stale_router_addr))
        crl url
  in
  (match faults.Faults.stale_after_ms with
  | None -> ()
  | Some after when stale_router_addr >= 0 ->
    Engine.schedule_at world.engine ~time:(1_000_000 + after) (fun () ->
        let no = Deployment.operator world.deployment in
        stale_lists :=
          Some (Network_operator.current_crl no, Network_operator.current_url no);
        revoked_addr := user_base_addr;
        (match Deployment.revoke_user world.deployment ~uid:"user-0" ~group_id with
        | Ok () -> ()
        | Error e -> failwith ("city_auth stale fault: " ^ e));
        Deployment.refresh_routers world.deployment;
        restore_stale ())
  | Some _ -> ());
  (* scheduled router crash/restart churn *)
  drive_churn world ~until ~churn:faults.Faults.churn routers;
  (* the partitioned router is re-frozen after every refresh *)
  refresh_loop world ~until ~after:restore_stale;
  (* Poisson (re-)authentication arrivals per user *)
  let attempts = ref 0 in
  List.iter
    (fun node ->
      repeat world ~until
        ~delay:(fun () ->
          ms (Sim_rand.exponential world.rand ~mean:mean_interarrival_ms))
        (fun () ->
          if not node.un_want_auth then begin
            node.un_want_auth <- true;
            node.un_attempt_started <- Engine.now world.engine;
            if Peace_obs.Trace.sink_active () then
              node.un_span <-
                Some
                  (Peace_obs.Trace.start
                     ~attrs:[ ("user", string_of_int node.un_addr) ]
                     ~ts:(Engine.now world.engine) "sim.handshake");
            incr attempts
          end))
    users;
  (* timeline telemetry: snapshot city-wide gauges on simulated time *)
  (match sampler with
  | None -> ()
  | Some s ->
    let track name read = ignore (Peace_obs.Timeseries.track s name read) in
    track "sim.router.queue_depth" (fun () ->
        List.fold_left
          (fun acc node -> acc +. float_of_int (queue_depth node))
          0.0 routers);
    track "sim.handshakes.inflight" (fun () ->
        List.fold_left
          (fun acc u -> if u.un_pending <> None then acc +. 1.0 else acc)
          0.0 users);
    track "sim.authenticated" (fun () ->
        float_of_int (Metrics.count world.metrics "user.authenticated"));
    track "sim.net.bytes_on_air" (fun () ->
        float_of_int (Net.bytes_sent world.net));
    Engine.attach_sampler world.engine ~period:1_000 ~until s);
  Engine.run ~until world.engine;
  (match alerts with Some _ -> Peace_obs.Alert.uninstall_tap () | None -> ());
  let successes = Metrics.count world.metrics "user.authenticated" in
  let failures =
    List.filter
      (fun (name, _) ->
        String.length name > 5
        && (String.sub name 0 5 = "user." || String.sub name 0 7 = "router.")
        && name <> "user.authenticated" && name <> "router.accepted"
        (* recovery activity, not failure classes *)
        && name <> "user.retransmissions"
        && name <> "user.failover")
      (Metrics.counters world.metrics)
  in
  let util =
    List.fold_left
      (fun acc node -> acc +. (busy_ms node /. float_of_int duration_ms))
      0.0 routers
    /. float_of_int (List.length routers)
  in
  (* §IV-D attribution: open every metered session's logged signature at
     the operator to find its group, then merge the per-router invoices
     into one city-wide table *)
  let invoice_table =
    if not invoices then []
    else begin
      let no = Deployment.operator world.deployment in
      let by_group = Hashtbl.create 8 in
      List.iter
        (fun node ->
          List.iter
            (fun line ->
              let g = line.Accounting.il_group_id in
              let s, b, d =
                Option.value ~default:(0, 0, 0) (Hashtbl.find_opt by_group g)
              in
              Hashtbl.replace by_group g
                ( s + line.Accounting.il_sessions,
                  b + line.Accounting.il_bytes,
                  d + line.Accounting.il_duration_ms ))
            (Accounting.invoice no ~router:(mesh_router node)
               (Option.get (meter node))))
        routers;
      Hashtbl.fold (fun g (s, b, d) acc -> (g, s, b, d) :: acc) by_group []
      |> List.sort compare
    end
  in
  {
    cr_attempts = !attempts;
    cr_successes = successes;
    cr_failures = failures;
    cr_handshake_mean_ms =
      Option.value ~default:0.0 (Metrics.mean world.metrics "handshake_ms");
    cr_handshake_p95_ms =
      Option.value ~default:0.0 (Metrics.percentile world.metrics "handshake_ms" 95.0);
    cr_time_to_auth_mean_ms =
      Option.value ~default:0.0 (Metrics.mean world.metrics "time_to_auth_ms");
    cr_bytes_on_air = Net.bytes_sent world.net;
    cr_router_utilisation = util;
    cr_retransmissions = Metrics.count world.metrics "user.retransmissions";
    cr_timeouts = Metrics.count world.metrics "user.abandoned.timeout";
    cr_failovers = Metrics.count world.metrics "user.failover";
    cr_recovery_mean_ms =
      Option.value ~default:0.0 (Metrics.mean world.metrics "recovery_ms");
    cr_fault_counters =
      (match world.faults with Some l -> Faults.counters l | None -> [])
      @ [
          ("crashes", Metrics.count world.metrics "faults.crashes");
          ("restarts", Metrics.count world.metrics "faults.restarts");
          ("stale_accepts", Metrics.count world.metrics "faults.stale_accepts");
          ("dropped_unknown", Net.frames_dropped_unknown world.net);
        ];
    cr_invoices = invoice_table;
    cr_alerts =
      (match alerts with
      | Some t -> Peace_obs.Alert.transitions t
      | None -> []);
  }

(* ------------------------------------------------------------------ *)
(* E7: DoS flooding and client puzzles                                 *)
(* ------------------------------------------------------------------ *)

type dos_result = {
  dr_legit_attempts : int;
  dr_legit_successes : int;
  dr_bogus_received : int;
  dr_expensive_verifications : int;
  dr_cheap_rejections : int;
  dr_router_utilisation : float;
  dr_attacker_hashes : int;
}

let dos_attack ?(seed = 42) ?(cost = default_cost_model) ~puzzles
    ?(puzzle_difficulty = 8) ?(attacker_hash_rate_per_ms = 500.0)
    ?(faults = Faults.none) ~attack_rate_per_s ~legit_rate_per_s ~duration_ms
    () =
  let n_users = 20 in
  let world = make_world ~seed ~faults ~members:n_users () in
  let until = Engine.now world.engine + duration_ms in
  let router = Deployment.add_router world.deployment ~router_id:0 in
  if puzzles then Mesh_router.set_under_attack router ~difficulty:puzzle_difficulty;
  let node =
    router_node ~url_size:0
      ~service_ms:(service_ms cost ~under_attack:puzzles ~url_size:0)
      ~addr:0 ~pos:(0.0, 0.0) router
  in
  let attacker_addr = 90_000 in
  let bogus_received = ref 0 in
  serve world node ~on_request:(fun sender ->
      if sender >= attacker_addr then incr bogus_received);
  (* the fault plan's channel effects ride the Net link; churn crashes the
     single router (the staleness partition needs >1 router and is a
     city_auth-only fault) *)
  drive_churn world ~until ~churn:faults.Faults.churn [ node ];
  (* legitimate users near the router; solving a puzzle costs them real
     simulated time at the attacker's hash rate *)
  let driver =
    driver ~delay_ms:(sign_delay cost)
      ~solve_ms:(fun work -> ms (float_of_int work /. attacker_hash_rate_per_ms))
      ()
  in
  let users =
    List.init n_users (fun i ->
        let user =
          add_member world
            ~uid:(Printf.sprintf "user-%d" i)
            ~name:"U" ~national_id:(string_of_int i)
        in
        let node = user_node ~addr:(10_000 + i) user in
        attach world driver ~pos:(random_pos world 100.0) node;
        node)
  in
  beacon_loop world ~period:500 ~range:500.0 ~until [ node ];
  refresh_loop world ~until;
  (* legit arrivals: pick an idle user at random *)
  let legit_attempts = ref 0 in
  let legit_mean_ms = 1000.0 /. legit_rate_per_s in
  repeat world ~until
    ~delay:(fun () -> ms (Sim_rand.exponential world.rand ~mean:legit_mean_ms))
    (fun () ->
      match List.filter (fun u -> not u.un_want_auth) users with
      | [] -> ()
      | idle ->
        let u = List.nth idle (Sim_rand.int world.rand (List.length idle)) in
        u.un_want_auth <- true;
        u.un_attempt_started <- Engine.now world.engine;
        incr legit_attempts);
  (* the flooder: a well-formed request per beacon heard, brute-forcing
     the puzzle first when the router demands one *)
  let adversary = adversary world ~seed:(seed + 7) in
  let latest_beacon = ref None in
  let attacker_hashes = ref 0 in
  Net.register world.net attacker_addr ~pos:(10.0, 10.0)
    (receive world ~role:"attacker"
       [
         ( tag_beacon,
           fun f -> latest_beacon := Messages.beacon_of_bytes world.config f.body );
       ]);
  let attack_mean_ms = 1000.0 /. attack_rate_per_s in
  let rec attack () =
    let base_delay = Sim_rand.exponential world.rand ~mean:attack_mean_ms in
    Engine.schedule world.engine ~delay:(ms base_delay) (fun () ->
        if Engine.now world.engine <= until then begin
          match !latest_beacon with
          | None -> attack ()
          | Some beacon -> (
            let forge = forged_request world adversary beacon in
            let send_after delay solution =
              Engine.schedule world.engine ~delay (fun () ->
                  Net.send world.net ~src:attacker_addr ~dst:0
                    (envelope ~tag:tag_access_request ~sender:attacker_addr
                       (Messages.access_request_to_bytes world.config
                          (Deployment.gpk world.deployment)
                          (forge solution)));
                  attack ())
            in
            match beacon.Messages.puzzle with
            | Some puzzle when puzzles -> (
              match Puzzle.solve puzzle with
              | Some solution ->
                let work = Puzzle.solving_work puzzle solution in
                attacker_hashes := !attacker_hashes + work;
                send_after
                  (ms (float_of_int work /. attacker_hash_rate_per_ms))
                  (Some solution)
              | None -> attack ())
            | _ -> send_after 0 None)
        end)
  in
  attack ();
  Engine.run ~until world.engine;
  {
    dr_legit_attempts = !legit_attempts;
    dr_legit_successes = Metrics.count world.metrics "user.authenticated";
    dr_bogus_received = !bogus_received;
    dr_expensive_verifications = Mesh_router.verifications_performed router;
    dr_cheap_rejections = Mesh_router.requests_rejected_cheaply router;
    dr_router_utilisation = busy_ms node /. float_of_int duration_ms;
    dr_attacker_hashes = !attacker_hashes;
  }

(* ------------------------------------------------------------------ *)
(* E8: phishing window                                                 *)
(* ------------------------------------------------------------------ *)

type phishing_result = {
  pr_accepted_before_revocation : int;
  pr_accepted_in_window : int;
  pr_accepted_after_refresh : int;
  pr_window_ms : int;
}

let phishing ?(seed = 42) ~crl_refresh_ms ~revoke_at_ms ~duration_ms
    ~attempt_period_ms () =
  let world = make_world ~seed ~members:4 () in
  let until = Engine.now world.engine + duration_ms in
  (* router 1 will be compromised; router 2 stays honest *)
  let compromised = Deployment.add_router world.deployment ~router_id:1 in
  let _honest = Deployment.add_router world.deployment ~router_id:2 in
  let victim = add_member world ~uid:"victim" ~name:"V" ~national_id:"v" in
  let no = Deployment.operator world.deployment in
  (* freeze the compromised router's view: after revocation the adversary
     keeps replaying the last lists it obtained *)
  let revoked = ref false in
  let accepted_before = ref 0 in
  let accepted_window = ref 0 in
  let accepted_after_refresh = ref 0 in
  let last_refresh = ref 0 in
  let revoke_time = 1_000_000 + revoke_at_ms in
  (* the operator re-issues lists periodically; the compromised router only
     receives them while not revoked *)
  Engine.schedule_every world.engine
    ~period:(world.config.Config.crl_period_ms / 3) ~until (fun () ->
      Network_operator.refresh_lists no;
      if not !revoked then
        Mesh_router.update_lists compromised
          (Network_operator.current_crl no)
          (Network_operator.current_url no));
  Engine.schedule_at world.engine ~time:revoke_time (fun () ->
      Network_operator.revoke_router no ~router_id:1;
      revoked := true);
  (* the victim refreshes its CRL view from honest infrastructure *)
  Engine.schedule_every world.engine ~period:crl_refresh_ms ~until (fun () ->
      User.learn_lists victim
        (Network_operator.current_crl no)
        (Network_operator.current_url no);
      last_refresh := Engine.now world.engine);
  (* the victim periodically tries to use the (compromised) router *)
  Engine.schedule_every world.engine ~period:attempt_period_ms ~until (fun () ->
      let beacon = Mesh_router.beacon compromised in
      let now = Engine.now world.engine in
      match User.process_beacon victim beacon with
      | Ok _ ->
        if now < revoke_time then incr accepted_before
        else if !last_refresh > revoke_time then incr accepted_after_refresh
        else begin
          incr accepted_window;
          Metrics.sample world.metrics "phish_after_revoke_ms"
            (float_of_int (now - revoke_time))
        end
      | Error _ -> ());
  Engine.run ~until world.engine;
  let window =
    match Metrics.samples world.metrics "phish_after_revoke_ms" with
    | [] -> 0
    | xs -> int_of_float (List.fold_left Float.max 0.0 xs)
  in
  {
    pr_accepted_before_revocation = !accepted_before;
    pr_accepted_in_window = !accepted_window;
    pr_accepted_after_refresh = !accepted_after_refresh;
    pr_window_ms = window;
  }

(* ------------------------------------------------------------------ *)
(* E8: attack matrix                                                   *)
(* ------------------------------------------------------------------ *)

type attack_matrix = {
  am_outsider_accepted : int;
  am_outsider_attempts : int;
  am_revoked_accepted : int;
  am_revoked_attempts : int;
  am_replay_accepted : int;
  am_replay_attempts : int;
  am_rogue_beacons_accepted : int;
  am_rogue_beacon_attempts : int;
  am_legit_accepted : int;
  am_legit_attempts : int;
}

let attack_matrix ?(seed = 42) ~attempts_per_class () =
  let world = make_world ~seed ~members:8 () in
  let config = world.config in
  let d = world.deployment in
  let n = attempts_per_class in
  let router = Deployment.add_router d ~router_id:0 in
  let add_user uid = add_member world ~uid ~name:uid ~national_id:uid in
  let legit = add_user "legit" in
  let mallory = add_user "mallory" in
  (* revoke mallory *)
  (match Deployment.revoke_user d ~uid:"mallory" ~group_id with
  | Ok () -> ()
  | Error e -> failwith e);
  let adversary = adversary world ~seed:(seed + 13) in
  let gpk = Deployment.gpk d in
  let count_accept f =
    let accepted = ref 0 in
    for _ = 1 to n do
      if f () then incr accepted
    done;
    !accepted
  in
  (* 1. outsider bogus injection *)
  let outsider_accepted =
    count_accept (fun () ->
        let beacon = Mesh_router.beacon router in
        Result.is_ok
          (Mesh_router.handle_access_request router
             (forged_request world adversary beacon None)))
  in
  (* 2. revoked user *)
  let revoked_accepted =
    count_accept (fun () ->
        Result.is_ok (Deployment.authenticate d ~user:mallory ~router ()))
  in
  (* 3. replay: capture a legit M.2 and resend it *)
  let replay_accepted =
    count_accept (fun () ->
        let beacon = Mesh_router.beacon router in
        match User.process_beacon legit beacon with
        | Error _ -> false
        | Ok (request, pending) -> begin
          match Mesh_router.handle_access_request router request with
          | Error _ -> false
          | Ok (confirm, _) ->
            ignore (User.process_confirm legit pending confirm);
            (* the adversary replays the captured (M.2) *)
            Result.is_ok (Mesh_router.handle_access_request router request)
        end)
  in
  (* 4. rogue beacons (self-signed certificate) *)
  let rogue_rng = Sim_rand.bytes_fn (Sim_rand.create ~seed:(seed + 99)) in
  let rogue =
    Mesh_router.create config ~router_id:77 ~gpk
      ~operator_public:(Network_operator.public_key (Deployment.operator d))
      ~rng:rogue_rng
  in
  let self_key = Peace_ec.Ecdsa.generate config.Config.curve rogue_rng in
  Mesh_router.install_cert rogue
    (Cert.issue config ~operator_key:self_key ~router_id:77
       ~public_key:(Mesh_router.public_key rogue)
       ~now:(Engine.now world.engine));
  Mesh_router.update_lists rogue
    (Network_operator.current_crl (Deployment.operator d))
    (Network_operator.current_url (Deployment.operator d));
  let rogue_accepted =
    count_accept (fun () ->
        let beacon = Mesh_router.beacon rogue in
        Result.is_ok (User.process_beacon legit beacon))
  in
  (* 5. sanity: legitimate traffic *)
  let legit_accepted =
    count_accept (fun () ->
        Result.is_ok (Deployment.authenticate d ~user:legit ~router ()))
  in
  {
    am_outsider_accepted = outsider_accepted;
    am_outsider_attempts = n;
    am_revoked_accepted = revoked_accepted;
    am_revoked_attempts = n;
    am_replay_accepted = replay_accepted;
    am_replay_attempts = n;
    am_rogue_beacons_accepted = rogue_accepted;
    am_rogue_beacon_attempts = n;
    am_legit_accepted = legit_accepted;
    am_legit_attempts = n;
  }

(* ------------------------------------------------------------------ *)
(* Multi-hop uplink relaying                                           *)
(* ------------------------------------------------------------------ *)

type multihop_result = {
  mh_near_successes : int;
  mh_near_attempts : int;
  mh_far_successes : int;
  mh_far_attempts : int;
  mh_peer_handshakes : int;
  mh_frames_out_of_range : int;
}

let tag_peer_hello = 4
let tag_peer_response = 5
let tag_peer_confirm = 6
let tag_relay_forward = 7

let multihop_auth ?(seed = 42) ~n_near ~n_far ~duration_ms () =
  let world = make_world ~seed ~members:(n_near + n_far) () in
  let config = world.config in
  let until = Engine.now world.engine + duration_ms in
  let gpk = Deployment.gpk world.deployment in
  let peer_handshakes = ref 0 in
  (* router: full-cell downlink, and it answers requests relayed by anyone
     at once (no service queue) *)
  let router =
    router_node ~url_size:0 ~service_ms:0.0 ~addr:0 ~pos:(0.0, 0.0)
      (Deployment.add_router world.deployment ~router_id:0)
  in
  Net.register world.net 0 ~pos:(0.0, 0.0) ~tx_range:2000.0
    (receive world ~role:"router" [ (tag_access_request, answer world router) ]);
  let user_tx = 350.0 in
  let make_user uid addr =
    let node = user_node ~addr (add_member world ~uid ~name:uid ~national_id:uid) in
    node.un_want_auth <- true;
    node
  in
  (* near users: within direct uplink range, authenticating inline on the
     beacon; they also act as relays *)
  let near_driver =
    driver
      ~on_request:(fun _ -> Metrics.incr world.metrics "near.attempt")
      ~on_session:(fun _ -> Metrics.incr world.metrics "near.success")
      ()
  in
  let near_positions =
    List.init n_near (fun i ->
        let node = make_user (Printf.sprintf "near-%d" i) (1000 + i) in
        let user = node.un and addr = node.un_addr in
        let angle = 6.28 *. float_of_int i /. float_of_int (Stdlib.max 1 n_near) in
        let pos = (250.0 *. cos angle, 250.0 *. sin angle) in
        (* relay state: the peer session and who it protects *)
        let responder_state = ref None in
        let relay_return = ref None in
        (* §IV-C responder side *)
        let on_hello f =
          match Messages.peer_hello_of_bytes config gpk f.body with
          | None -> ()
          | Some hello -> begin
            match User.process_peer_hello user hello with
            | Ok (response, pr) ->
              responder_state := Some (f.sender, pr);
              Net.send world.net ~src:addr ~dst:f.sender
                (envelope ~tag:tag_peer_response ~sender:addr
                   (Messages.peer_response_to_bytes config gpk response))
            | Error e ->
              Metrics.incr world.metrics
                ("relay.hello_rejected." ^ Protocol_error.to_string e)
          end
        in
        let on_peer_confirm f =
          match !responder_state with
          | Some (peer_addr, pr) when peer_addr = f.sender -> begin
            match Messages.peer_confirm_of_bytes config f.body with
            | None -> ()
            | Some confirm -> begin
              match User.process_peer_confirm user pr confirm with
              | Ok session ->
                incr peer_handshakes;
                relay_return := Some (f.sender, session)
              | Error e ->
                Metrics.incr world.metrics
                  ("relay.confirm_rejected." ^ Protocol_error.to_string e)
            end
          end
          | _ -> ()
        in
        (* forward the inner payload to the router *)
        let on_forward f =
          match !relay_return with
          | Some (peer_addr, session) when peer_addr = f.sender -> begin
            match Relay.unwrap session f.body with
            | Some (_dst, inner) -> Net.send world.net ~src:addr ~dst:0 inner
            | None -> Metrics.incr world.metrics "relay.bad_forward"
          end
          | _ -> ()
        in
        attach world near_driver ~tx_range:user_tx ~pos node
          ~extra:
            [
              (tag_peer_hello, on_hello);
              (tag_peer_confirm, on_peer_confirm);
              (tag_relay_forward, on_forward);
            ];
        pos)
  in
  (* far users: hear beacons, cannot reach the router; they run the §IV-C
     handshake with a near peer, then send their (M.2) through it. The
     downlink is one hop (§III-A): the router's (M.3) reaches the far user
     directly even though the uplink was relayed *)
  for i = 0 to n_far - 1 do
    let node = make_user (Printf.sprintf "far-%d" i) (2000 + i) in
    let user = node.un and addr = node.un_addr in
    (* placed just outside their nearest near-user's orbit *)
    let nx, ny = List.nth near_positions (i mod List.length near_positions) in
    let scale = 1.0 +. (200.0 /. Float.max 1.0 (sqrt ((nx *. nx) +. (ny *. ny)))) in
    let pos = (nx *. scale, ny *. scale) in
    let peer_pending = ref None in
    let peer_session = ref None in
    let latest_beacon = ref None in
    let driver =
      driver
        ~on_request:(fun _ -> Metrics.incr world.metrics "far.attempt")
        ~on_session:(fun _ -> Metrics.incr world.metrics "far.success")
        ~route:(fun _router m2 ->
          Option.iter
            (fun (relay_addr, session) ->
              Net.send world.net ~src:addr ~dst:relay_addr
                (envelope ~tag:tag_relay_forward ~sender:addr
                   (Relay.wrap session ~dst:"router-0" m2)))
            !peer_session)
        ()
    in
    let try_relay_auth () =
      if !peer_session <> None then
        Option.iter (on_beacon world driver node) !latest_beacon
    in
    let on_beacon_heard f =
      match Messages.beacon_of_bytes config f.body with
      | None -> ()
      | Some beacon ->
        latest_beacon := Some f;
        if !peer_session = None && !peer_pending = None && node.un_want_auth
        then begin
          (* start the §IV-C handshake with whoever hears us *)
          match User.peer_hello user ~g:beacon.Messages.g () with
          | Ok (hello, pi) ->
            peer_pending := Some pi;
            Net.broadcast world.net ~src:addr ~range:user_tx
              (envelope ~tag:tag_peer_hello ~sender:addr
                 (Messages.peer_hello_to_bytes config gpk hello))
          | Error _ -> ()
        end
        else try_relay_auth ()
    in
    let on_response f =
      match (!peer_pending, Messages.peer_response_of_bytes config gpk f.body) with
      | Some pi, Some response -> begin
        match User.process_peer_response user pi response with
        | Ok (confirm, session) ->
          peer_pending := None;
          peer_session := Some (f.sender, session);
          Net.send world.net ~src:addr ~dst:f.sender
            (envelope ~tag:tag_peer_confirm ~sender:addr
               (Messages.peer_confirm_to_bytes config confirm));
          try_relay_auth ()
        | Error _ -> peer_pending := None
      end
      | _ -> ()
    in
    attach world driver ~tx_range:user_tx ~pos node
      ~extra:[ (tag_beacon, on_beacon_heard); (tag_peer_response, on_response) ]
  done;
  beacon_loop world ~period:500 ~range:2000.0 ~until [ router ];
  refresh_loop world ~until;
  Engine.run ~until world.engine;
  {
    mh_near_successes = Metrics.count world.metrics "near.success";
    mh_near_attempts = Metrics.count world.metrics "near.attempt";
    mh_far_successes = Metrics.count world.metrics "far.success";
    mh_far_attempts = Metrics.count world.metrics "far.attempt";
    mh_peer_handshakes = !peer_handshakes;
    mh_frames_out_of_range = Net.frames_out_of_range world.net;
  }

(* ------------------------------------------------------------------ *)
(* Roaming / handoff                                                   *)
(* ------------------------------------------------------------------ *)

type roaming_result = {
  ro_handoffs : int;
  ro_handoff_failures : int;
  ro_handoff_mean_ms : float;
  ro_moves : int;
  ro_sessions_per_user : float;
}

let roaming ?(seed = 42) ?(cost = default_cost_model) ~n_routers ~n_users
    ~duration_ms ~move_period_ms () =
  let world = make_world ~seed ~members:n_users () in
  let until = Engine.now world.engine + duration_ms in
  let area = 2000.0 and range = 560.0 in
  let routers =
    List.init n_routers (fun i ->
        let node =
          router_node ~url_size:0
            ~service_ms:(service_ms cost ~under_attack:false ~url_size:0)
            ~addr:i ~pos:(grid_pos ~n:n_routers ~area i)
            (Deployment.add_router world.deployment ~router_id:i)
        in
        serve world node;
        node)
  in
  (* a user wants a session whenever a move left it unserved: the next
     beacon heard in the new cell starts the handoff, and beacons from
     other overlapping cells do not cause ping-pong *)
  let driver =
    driver ~delay_ms:(sign_delay cost)
      ~on_start:(fun node ->
        node.un_attempt_started <- Engine.now world.engine;
        Metrics.incr world.metrics "roam.handoff_started")
      ~on_session:(fun node ->
        Metrics.incr world.metrics "roam.handoff_done";
        Metrics.sample world.metrics "roam.handoff_ms"
          (float_of_int (Engine.now world.engine - node.un_attempt_started)))
      ~on_reject:(fun _ -> Metrics.incr world.metrics "roam.handoff_failed")
      ()
  in
  let moves = ref 0 in
  for i = 0 to n_users - 1 do
    let user =
      add_member world
        ~uid:(Printf.sprintf "roamer-%d" i)
        ~name:"R" ~national_id:(string_of_int i)
    in
    let node = user_node ~addr:(10_000 + i) user in
    node.un_want_auth <- true;
    attach world driver ~pos:(random_pos world area) node;
    (* random-waypoint teleports *)
    repeat world ~until
      ~delay:(fun () -> move_period_ms + Sim_rand.int world.rand 1000)
      (fun () ->
        Net.move world.net node.un_addr (random_pos world area);
        incr moves;
        node.un_want_auth <- true)
  done;
  beacon_loop world ~period:400 ~range ~until routers;
  refresh_loop world ~until;
  Engine.run ~until world.engine;
  let handoffs = Metrics.count world.metrics "roam.handoff_done" in
  {
    ro_handoffs = handoffs;
    ro_handoff_failures = Metrics.count world.metrics "roam.handoff_failed";
    ro_handoff_mean_ms =
      Option.value ~default:0.0 (Metrics.mean world.metrics "roam.handoff_ms");
    ro_moves = !moves;
    ro_sessions_per_user = float_of_int handoffs /. float_of_int n_users;
  }
