open Peace_bigint
open Peace_pairing
open Peace_groupsig
open Peace_core

type world = {
  engine : Engine.t;
  rand : Sim_rand.t;
  config : Config.t;
  deployment : Deployment.t;
  net : Net.t;
  metrics : Metrics.t;
  faults : Faults.link option;
}

let group_id = 1

let make_world ?(seed = 42) ?(loss_prob = 0.0) ?(faults = Faults.none) ~members
    () =
  let engine = Engine.create () in
  let rand = Sim_rand.create ~seed in
  let config = Config.tiny_test ~clock:(Engine.clock engine) () in
  let deployment =
    Deployment.create ~seed:(Printf.sprintf "sim-%d" seed) config
  in
  ignore (Deployment.add_group deployment ~group_id ~size:members);
  (* the fault link gets its own stream derived from the seed: injecting
     faults never perturbs the scenario's placement/arrival draws, so a
     plan of [none] stays bit-identical to a fault-free run *)
  let link =
    if Faults.is_none faults then None
    else Some (Faults.link ~seed:(seed lxor 0x5eed17) faults)
  in
  let net = Net.create engine rand ~loss_prob ?faults:link () in
  {
    engine;
    rand;
    config;
    deployment;
    net;
    metrics = Metrics.create ();
    faults = link;
  }

(* pad the operator's URL with [n] revoked-but-never-assigned keys so the
   revocation scan costs what the paper's analysis predicts *)
let pad_url world n =
  if n > 0 then begin
    let padding_group = 999_999 in
    ignore (Deployment.add_group world.deployment ~group_id:padding_group ~size:n);
    for index = 0 to n - 1 do
      Network_operator.revoke_user_key
        (Deployment.operator world.deployment)
        ~group_id:padding_group ~index
    done;
    Deployment.refresh_routers world.deployment
  end

let ms f = Stdlib.max 0 (int_of_float (ceil f))

let add_member world ~uid ~name ~national_id =
  match
    Deployment.add_user world.deployment
      (Identity.make ~uid ~name ~national_id
         [ { Identity.group_id; description = "resident" } ])
  with
  | Ok user -> user
  | Error reason -> failwith (Printf.sprintf "add_member %s: %s" uid reason)

let random_pos world area =
  (Sim_rand.float world.rand area, Sim_rand.float world.rand area)

let repeat world ~until ~delay action =
  let rec go () =
    Engine.schedule world.engine ~delay:(delay ()) (fun () ->
        if Engine.now world.engine <= until then begin
          action ();
          go ()
        end)
  in
  go ()

let tag_beacon = 1
let tag_access_request = 2
let tag_access_confirm = 3

type frame = { tag : int; sender : int; req : int; body : string }

(* [req] is a request id for cross-event tracing: the root span id of the
   handshake this frame belongs to (0 = untraced). It rides the simulated
   radio only — the real protocol messages inside [payload] are unchanged —
   so a router can parent its processing span under the user's handshake
   span even though the two run in different events. *)
let envelope ?(req = 0) ~tag ~sender payload =
  let w = Wire.writer () in
  Wire.u8 w tag;
  Wire.u32 w sender;
  Wire.u32 w req;
  Wire.bytes w payload;
  Wire.contents w

let parse_envelope s =
  let open Wire in
  let r = reader s in
  match
    let* tag = read_u8 r in
    let* sender = read_u32 r in
    let* req = read_u32 r in
    let* body = read_bytes r in
    let* () = expect_end r in
    Ok { tag; sender; req; body }
  with
  | Ok f -> Some f
  | Error _ -> None

let receive world ~role handlers payload =
  match parse_envelope payload with
  | None ->
    Metrics.incr world.metrics
      (role ^ ".dropped." ^ Protocol_error.to_string Protocol_error.Malformed_frame)
  | Some f -> (
    match List.assoc_opt f.tag handlers with Some h -> h f | None -> ())

(* a span is only opened when a trace sink is live AND the frame carries a
   request id — the untraced paths stay allocation-free *)
let sim_span world ~req ~name =
  if req > 0 && Peace_obs.Trace.sink_active () then
    Some
      (Peace_obs.Trace.start ~parent:req ~ts:(Engine.now world.engine) name)
  else None

let sim_finish world = function
  | None -> ()
  | Some h -> Peace_obs.Trace.finish ~ts:(Engine.now world.engine) h

type router_node = {
  rn : Mesh_router.t;
  rn_addr : int;
  rn_pos : float * float;
  rn_url_size : int;
  rn_service_ms : float;
  rn_meter : Accounting.meter option;
  mutable rn_handler : string -> unit;
  mutable rn_busy_until : int;
  mutable rn_busy_total : float;
  mutable rn_queue : int;
  (* crash/restart churn: while down the router is off the radio and emits
     no beacons; the epoch invalidates service jobs in flight at the crash *)
  mutable rn_down : bool;
  mutable rn_epoch : int;
  (* per-router labeled registry series (router="rN"): load, queue depth,
     and revocation-scan length, scrapeable via `peace serve` /metrics *)
  rn_c_requests : Peace_obs.Registry.Counter.t;
  rn_g_queue : Peace_obs.Registry.Gauge.t;
  rn_h_scan : Peace_obs.Registry.Histogram.t;
}

let queue_limit = 64

let router_node ?meter ~url_size ~service_ms ~addr ~pos rn =
  let labels = [ ("router", "r" ^ string_of_int addr) ] in
  {
    rn;
    rn_addr = addr;
    rn_pos = pos;
    rn_url_size = url_size;
    rn_service_ms = service_ms;
    rn_meter = meter;
    rn_handler = ignore;
    rn_busy_until = 0;
    rn_busy_total = 0.0;
    rn_queue = 0;
    rn_down = false;
    rn_epoch = 0;
    rn_c_requests =
      Peace_obs.Registry.counter ~labels "sim.router.requests_total";
    rn_g_queue = Peace_obs.Registry.gauge ~labels "sim.router.queue_depth";
    rn_h_scan = Peace_obs.Registry.histogram ~labels "sim.router.scan_len";
  }

let mesh_router node = node.rn
let queue_depth node = node.rn_queue
let busy_ms node = node.rn_busy_total
let meter node = node.rn_meter

let grid_pos ~n ~area i =
  let grid = int_of_float (ceil (sqrt (float_of_int n))) in
  let cell = area /. float_of_int grid in
  ((float_of_int (i mod grid) +. 0.5) *. cell, (float_of_int (i / grid) +. 0.5) *. cell)

(* run the real handler and answer an accepted request with (M.3) *)
let respond world node ~on_accept f request =
  match Mesh_router.handle_access_request node.rn request with
  | Ok (confirm, session) ->
    Metrics.incr world.metrics "router.accepted";
    on_accept f.sender;
    let confirm_bytes = Messages.access_confirm_to_bytes world.config confirm in
    (* billing hook: meter the handshake itself as a (brief) session —
       M.2 bytes up, M.3 bytes down, the modeled service time as
       duration — and close it immediately so the run ends with an
       invoiceable usage table. Draws no randomness: metered runs replay
       bit-identically. *)
    (match node.rn_meter with
    | None -> ()
    | Some m ->
      let session_id = Session.id session in
      Accounting.record_up m ~session_id ~bytes:(String.length f.body);
      Accounting.record_down m ~session_id ~bytes:(String.length confirm_bytes);
      ignore
        (Accounting.close_session m ~session_id
           ~duration_ms:(int_of_float node.rn_service_ms)));
    Net.send world.net ~src:node.rn_addr ~dst:f.sender
      (envelope ~req:f.req ~tag:tag_access_confirm ~sender:node.rn_addr
         confirm_bytes)
  | Error e ->
    Metrics.incr world.metrics ("router.rejected." ^ Protocol_error.to_string e)

(* charge the modeled processing time, then run the real handler *)
let router_service world node ~on_accept f request =
  let now = Engine.now world.engine in
  Peace_obs.Registry.Counter.incr node.rn_c_requests;
  Peace_obs.Registry.Histogram.observe node.rn_h_scan node.rn_url_size;
  if node.rn_queue >= queue_limit then
    Metrics.incr world.metrics "router.dropped_queue_full"
  else begin
    node.rn_queue <- node.rn_queue + 1;
    Peace_obs.Registry.Gauge.set node.rn_g_queue node.rn_queue;
    (* the span covers queueing + modeled verify: it opens in this event
       and closes in the scheduled one, parented on the id that travelled
       inside the (M.2) envelope *)
    let span = sim_span world ~req:f.req ~name:"sim.router.service" in
    let epoch = node.rn_epoch in
    let start = Stdlib.max now node.rn_busy_until in
    let finish = start + ms node.rn_service_ms in
    node.rn_busy_until <- finish;
    node.rn_busy_total <- node.rn_busy_total +. node.rn_service_ms;
    Engine.schedule_at world.engine ~time:finish (fun () ->
        if node.rn_epoch <> epoch then
          (* the router crashed mid-service: the in-flight job dies with it *)
          Metrics.incr world.metrics "router.dropped_crash"
        else begin
          node.rn_queue <- node.rn_queue - 1;
          Peace_obs.Registry.Gauge.set node.rn_g_queue node.rn_queue;
          respond world node ~on_accept f request
        end;
        sim_finish world span)
  end

(* decode the (M.2) a frame carries, or count it unparseable *)
let with_request world f k =
  match
    Messages.access_request_of_bytes world.config
      (Deployment.gpk world.deployment)
      f.body
  with
  | Some request -> k request
  | None -> Metrics.incr world.metrics "router.unparseable"

let serve world ?(on_request = ignore) ?(on_accept = ignore) node =
  let queue f =
    with_request world f (fun request ->
        on_request f.sender;
        router_service world node ~on_accept f request)
  in
  node.rn_handler <- receive world ~role:"router" [ (tag_access_request, queue) ];
  Net.register world.net node.rn_addr ~pos:node.rn_pos node.rn_handler

let answer world node f =
  with_request world f (respond world node ~on_accept:ignore f)

(* beacons are silenced while a router is crashed *)
let beacon_loop world ~period ~range ~until nodes =
  List.iter
    (fun node ->
      Engine.schedule_every world.engine ~period ~until (fun () ->
          if not node.rn_down then begin
            let beacon = Mesh_router.beacon node.rn in
            Net.broadcast world.net ~src:node.rn_addr ~range
              (envelope ~tag:tag_beacon ~sender:node.rn_addr
                 (Messages.beacon_to_bytes world.config beacon))
          end))
    nodes

(* keep revocation lists fresh so beacons stay acceptable *)
let refresh_loop ?(after = ignore) world ~until =
  Engine.schedule_every world.engine
    ~period:(world.config.Config.crl_period_ms / 2)
    ~until
    (fun () ->
      Deployment.refresh_routers world.deployment;
      after ())

(* crash/restart one router according to the fault plan's churn cycle:
   round-robin over [nodes], each crash unregisters the radio endpoint,
   wipes the service queue (RAM state dies with the process) and silences
   beacons until the restart re-registers the same handler *)
let drive_churn world ~until ~churn nodes =
  match (churn : Faults.churn option) with
  | None -> ()
  | Some { Faults.churn_period_ms; churn_downtime_ms } ->
    let n = List.length nodes in
    let next = ref 0 in
    if n > 0 then
      Engine.schedule_every world.engine ~period:churn_period_ms ~until
        (fun () ->
          let node = List.nth nodes (!next mod n) in
          incr next;
          if not node.rn_down then begin
            node.rn_down <- true;
            node.rn_epoch <- node.rn_epoch + 1;
            node.rn_queue <- 0;
            node.rn_busy_until <- 0;
            Peace_obs.Registry.Gauge.set node.rn_g_queue 0;
            Net.unregister world.net node.rn_addr;
            Metrics.incr world.metrics "faults.crashes";
            Faults.note_crash ();
            Engine.schedule world.engine ~delay:churn_downtime_ms (fun () ->
                node.rn_down <- false;
                Net.register world.net node.rn_addr ~pos:node.rn_pos
                  node.rn_handler;
                Metrics.incr world.metrics "faults.restarts";
                Faults.note_restart ())
          end)

type attempt = {
  mutable busy : bool; (* computing the (M.2) (modeled delay) *)
  mutable m2_sent : int;
  (* hardened-handshake state: the serialised (M.2) kept for
     retransmission, the backoff ladder position, and an epoch that
     cancels stale retransmission timers when the attempt resolves *)
  mutable frame : (int * string) option; (* dst router, (M.2) envelope *)
  mutable retx_left : int;
  mutable backoff_ms : int;
  mutable epoch : int;
  mutable avoid : int; (* router of the last abandoned attempt, -1 none *)
  mutable avoid_until : int;
  mutable trouble_at : int; (* first retransmission of this attempt *)
}

type user_node = {
  un : User.t;
  un_addr : int;
  mutable un_want_auth : bool;
  mutable un_attempt_started : int;
  mutable un_pending : User.pending_access option;
  mutable un_span : Peace_obs.Trace.handle option;
  un_at : attempt;
}

let user_node ~addr un =
  {
    un;
    un_addr = addr;
    un_want_auth = false;
    un_attempt_started = 0;
    un_pending = None;
    un_span = None;
    un_at =
      {
        busy = false;
        m2_sent = 0;
        frame = None;
        retx_left = 0;
        backoff_ms = 0;
        epoch = 0;
        avoid = -1;
        avoid_until = 0;
        trouble_at = 0;
      };
  }

type timeout =
  | No_timeout
  | Fixed of int
  | Retransmit of { rand : Sim_rand.t; avoid_ms : int }

type driver = {
  delay_ms : int option;
  solve_ms : (int -> int) option;
  timeout : timeout;
  on_start : user_node -> unit;
  on_request : user_node -> unit;
  on_session : user_node -> unit;
  on_reject : user_node -> unit;
  route : (int -> string -> unit) option;
}

let driver ?delay_ms ?solve_ms ?(timeout = No_timeout) ?(on_start = ignore)
    ?(on_request = ignore) ?(on_session = ignore) ?(on_reject = ignore) ?route
    () =
  {
    delay_ms;
    solve_ms;
    timeout;
    on_start;
    on_request;
    on_session;
    on_reject;
    route;
  }

(* hardened-handshake retransmission, documented in scenario.mli *)
let retx_base_ms = 1_000
let retx_cap_ms = 8_000
let retx_max = 4
let retx_jitter_ms = 250

(* the attempt resolved (success, rejection or abandonment): bump the
   epoch so outstanding retransmission timers die *)
let settle node =
  node.un_pending <- None;
  node.un_at.frame <- None;
  node.un_at.epoch <- node.un_at.epoch + 1

let transmit world d node ~dst frame =
  match d.route with
  | Some route -> route dst frame
  | None -> Net.send world.net ~src:node.un_addr ~dst frame

let rec schedule_retx world d ~rand ~avoid_ms node =
  let at = node.un_at in
  let epoch = at.epoch in
  let jitter = Sim_rand.int rand (retx_jitter_ms + 1) in
  Engine.schedule world.engine ~delay:(at.backoff_ms + jitter) (fun () ->
      if at.epoch = epoch && node.un_pending <> None then
        match at.frame with
        | None -> ()
        | Some (dst, frame) when at.retx_left > 0 ->
          at.retx_left <- at.retx_left - 1;
          at.backoff_ms <- Stdlib.min retx_cap_ms (at.backoff_ms * 2);
          if at.trouble_at = 0 then at.trouble_at <- Engine.now world.engine;
          Metrics.incr world.metrics "user.retransmissions";
          Faults.note_retransmission ();
          transmit world d node ~dst frame;
          schedule_retx world d ~rand ~avoid_ms node
        | Some (dst, _) ->
          settle node;
          at.avoid <- dst;
          at.avoid_until <- Engine.now world.engine + avoid_ms;
          Metrics.incr world.metrics
            ("user.abandoned." ^ Protocol_error.to_string Protocol_error.Timeout);
          Faults.note_timeout ())

let send_request world d node ~dst ~req request pending =
  let at = node.un_at in
  at.busy <- false;
  node.un_pending <- Some pending;
  at.m2_sent <- Engine.now world.engine;
  d.on_request node;
  let frame =
    envelope ~req ~tag:tag_access_request ~sender:node.un_addr
      (Messages.access_request_to_bytes world.config
         (Deployment.gpk world.deployment)
         request)
  in
  (match d.timeout with
  | Retransmit { rand; avoid_ms } ->
    (* a fresh attempt at a different router after an abandoned one is
       the failover *)
    if at.avoid >= 0 && dst <> at.avoid then begin
      Metrics.incr world.metrics "user.failover";
      Faults.note_failover ()
    end;
    at.avoid <- -1;
    at.frame <- Some (dst, frame);
    at.retx_left <- retx_max;
    at.backoff_ms <- retx_base_ms;
    at.epoch <- at.epoch + 1;
    schedule_retx world d ~rand ~avoid_ms node
  | Fixed _ | No_timeout -> ());
  transmit world d node ~dst frame

let on_beacon world d node f =
  let at = node.un_at in
  let now = Engine.now world.engine in
  (* a fixed timeout: an attempt whose M.2 or M.3 frame was lost is given
     up on a later beacon *)
  (match (d.timeout, node.un_pending) with
  | Fixed limit, Some _ when now - at.m2_sent > limit ->
    node.un_pending <- None;
    Metrics.incr world.metrics "user.handshake_timeout"
  | _ -> ());
  (* only a retransmitting user ever abandons, and so avoids, a router *)
  let avoided = f.sender = at.avoid && now < at.avoid_until in
  if node.un_want_auth && node.un_pending = None && (not at.busy) && not avoided
  then
    match Messages.beacon_of_bytes world.config f.body with
    | None -> ()
    | Some beacon ->
      at.busy <- true;
      d.on_start node;
      (* the request id is the root span id: it survives the schedule hop
         here and the radio hop to the router *)
      let req =
        match node.un_span with Some root -> Peace_obs.Trace.id root | None -> 0
      in
      let sign_span = sim_span world ~req ~name:"sim.user.sign" in
      let work_before = User.puzzle_work_done node.un in
      let process () =
        sim_finish world sign_span;
        match User.process_beacon node.un beacon with
        | Ok (request, pending) -> (
          let send () = send_request world d node ~dst:f.sender ~req request pending in
          match d.solve_ms with
          | None -> send ()
          | Some solve ->
            (* stay busy until the request is actually sent, or a later
               beacon would double-fire the M.2 *)
            let work = User.puzzle_work_done node.un - work_before in
            Engine.schedule world.engine ~delay:(solve work) send)
        | Error e ->
          at.busy <- false;
          Metrics.incr world.metrics
            ("user.beacon_rejected." ^ Protocol_error.to_string e);
          d.on_reject node
      in
      match d.delay_ms with
      | None -> process ()
      | Some delay -> Engine.schedule world.engine ~delay process

let on_confirm world d node f =
  match (node.un_pending, Messages.access_confirm_of_bytes world.config f.body) with
  | Some pending, Some confirm -> (
    match User.process_confirm node.un pending confirm with
    | Ok _session ->
      let at = node.un_at in
      settle node;
      node.un_want_auth <- false;
      let now = Engine.now world.engine in
      (* close the attempt's root span: its duration is the end-to-end
         (arrival → session) latency in sim ms *)
      (match node.un_span with
      | Some root ->
        Peace_obs.Trace.finish ~ts:now root;
        node.un_span <- None
      | None -> ());
      if at.trouble_at > 0 then begin
        let rec_ms = now - at.trouble_at in
        Metrics.sample world.metrics "recovery_ms" (float_of_int rec_ms);
        Faults.observe_recovery_ms rec_ms;
        at.trouble_at <- 0
      end;
      Metrics.incr world.metrics "user.authenticated";
      Metrics.sample world.metrics "handshake_ms" (float_of_int (now - at.m2_sent));
      Metrics.sample world.metrics "time_to_auth_ms"
        (float_of_int (now - node.un_attempt_started));
      d.on_session node
    | Error e ->
      settle node;
      Metrics.incr world.metrics
        ("user.confirm_rejected." ^ Protocol_error.to_string e);
      d.on_reject node)
  | _ -> ()

let attach world d ?tx_range ?(extra = []) ~pos node =
  Net.register world.net node.un_addr ~pos ?tx_range
    (receive world ~role:"user"
       (extra
       @ [
           (tag_beacon, on_beacon world d node);
           (tag_access_confirm, on_confirm world d node);
         ]))

type adversary = {
  adv_rng : int -> string;
  adv_issuer : Group_sig.issuer;
  adv_key : Group_sig.gsk;
}

let adversary world ~seed =
  let adv_rng = Sim_rand.bytes_fn (Sim_rand.create ~seed) in
  let adv_issuer =
    Group_sig.setup ~base_mode:world.config.Config.base_mode
      world.config.Config.pairing adv_rng
  in
  let adv_key = Group_sig.issue adv_issuer ~grp:Bigint.one adv_rng in
  { adv_rng; adv_issuer; adv_key }

(* signatures from the foreign key parse but never verify. The DH share
   is drawn when the beacon is heard; the returned function signs at the
   moment the request leaves *)
let forged_request world adv (beacon : Messages.beacon) =
  let params = world.config.Config.pairing in
  let r_j = Bigint.random_range adv.adv_rng Bigint.one params.Params.q in
  let g_rj = G1.mul params r_j beacon.Messages.g in
  fun puzzle_solution ->
    let ts2 = Engine.now world.engine in
    let transcript =
      Messages.auth_transcript world.config g_rj beacon.Messages.g_rr ts2
    in
    let gsig =
      Group_sig.sign adv.adv_issuer.Group_sig.gpk adv.adv_key ~rng:adv.adv_rng
        ~msg:transcript
    in
    { Messages.g_rj; ar_g_rr = beacon.Messages.g_rr; ts2; gsig; puzzle_solution }
