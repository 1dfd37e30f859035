(** The agents every simulator scenario is built from: a world, a router
    and a user agent speaking the §IV-B access protocol (M.1 → M.2 → M.3)
    in framed radio messages, and an outsider adversary. Scenarios pass
    values and hooks; each call schedules events and draws randomness at
    the point a scenario makes it, so event and draw order stay the
    scenario's own. *)

open Peace_core

(** {1 World} *)

val group_id : int
(** The one resident group every member joins. *)

type world = {
  engine : Engine.t;
  rand : Sim_rand.t;
  config : Config.t;
  deployment : Deployment.t;
  net : Net.t;
  metrics : Metrics.t;
  faults : Faults.link option;
}

val make_world :
  ?seed:int -> ?loss_prob:float -> ?faults:Faults.plan -> members:int -> unit ->
  world
(** A fresh engine, radio and deployment with a group of [members] keys. *)

val pad_url : world -> int -> unit
(** Revokes that many never-assigned keys: the URL scan costs what §V-C
    predicts for a URL of that size. *)

val ms : float -> int
val random_pos : world -> float -> float * float
val grid_pos : n:int -> area:float -> int -> float * float

val add_member : world -> uid:string -> name:string -> national_id:string -> User.t

val repeat : world -> until:int -> delay:(unit -> int) -> (unit -> unit) -> unit
(** Runs the action [delay ()] ms from now, and again after each run,
    while the clock has not passed [until]. *)

(** {1 Frames} *)

val tag_beacon : int
val tag_access_request : int

type frame = { tag : int; sender : int; req : int; body : string }
(** [req]: the handshake's root span id (0 untraced). *)

val envelope : ?req:int -> tag:int -> sender:int -> string -> string

val receive :
  world -> role:string -> (int * (frame -> unit)) list -> string -> unit
(** Dispatches on the tag; counts an unparseable frame as
    [role ^ ".dropped.malformed frame"]. *)

(** {1 Router agent} *)

type router_node

val router_node :
  ?meter:Accounting.meter -> url_size:int -> service_ms:float -> addr:int ->
  pos:float * float -> Mesh_router.t -> router_node

val mesh_router : router_node -> Mesh_router.t
val queue_depth : router_node -> int
val busy_ms : router_node -> float
val meter : router_node -> Accounting.meter option

val serve :
  world -> ?on_request:(int -> unit) -> ?on_accept:(int -> unit) ->
  router_node -> unit
(** Registers the router: a decoded (M.2) calls [on_request] with its
    sender and waits in a 64-deep queue for [service_ms]; an accepted one
    calls [on_accept] and is answered with (M.3). *)

val answer : world -> router_node -> frame -> unit
(** Handles the (M.2) in a frame at once, without the queue. *)

val beacon_loop :
  world -> period:int -> range:float -> until:int -> router_node list -> unit
val refresh_loop : ?after:(unit -> unit) -> world -> until:int -> unit
val drive_churn :
  world -> until:int -> churn:Faults.churn option -> router_node list -> unit

(** {1 User agent} *)

type attempt

type user_node = {
  un : User.t;
  un_addr : int;
  mutable un_want_auth : bool;
  mutable un_attempt_started : int;
  mutable un_pending : User.pending_access option;
  mutable un_span : Peace_obs.Trace.handle option;
  un_at : attempt;
}

val user_node : addr:int -> User.t -> user_node

type timeout =
  | No_timeout
  | Fixed of int  (** dropped on the first beacon this long after (M.2) *)
  | Retransmit of { rand : Sim_rand.t; avoid_ms : int }
      (** resend with backoff, then avoid that router for [avoid_ms] *)

type driver

val driver :
  ?delay_ms:int -> ?solve_ms:(int -> int) -> ?timeout:timeout ->
  ?on_start:(user_node -> unit) -> ?on_request:(user_node -> unit) ->
  ?on_session:(user_node -> unit) -> ?on_reject:(user_node -> unit) ->
  ?route:(int -> string -> unit) -> unit -> driver
(** A wanting, idle user answers a beacon ([on_start]) after [delay_ms]
    (inline when absent); its (M.2) leaves ([on_request]) at once, or
    [solve_ms] of the puzzle work later, to the beacon's sender or through
    [route]. (M.3) ends in [on_session]; a rejected beacon or confirm in
    [on_reject]. *)

val attach :
  world -> driver -> ?tx_range:float -> ?extra:(int * (frame -> unit)) list ->
  pos:float * float -> user_node -> unit
(** Registers the user with the driver's beacon and confirm handlers;
    [extra] handlers take precedence. *)

val on_beacon : world -> driver -> user_node -> frame -> unit

(** {1 Adversary} *)

type adversary

val adversary : world -> seed:int -> adversary

val forged_request :
  world -> adversary -> Messages.beacon -> string option -> Messages.access_request
(** Draws the DH share now; signs with a foreign key when applied. *)
