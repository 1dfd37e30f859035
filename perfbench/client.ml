(* The benchmark's own PEACE client: one TCP connection driven from the
   main domain, real (M.1) -> (M.2) -> (M.3) handshakes built from public
   calls only. One domain, because a deployment's members share its one
   DRBG, which is not safe to call from two domains at once.
   Each handshake times the full exchange a user waits for, including the
   beacon check and the group signature. *)

open Peace_core
module Frames = Peace_service.Frames
module Trace = Peace_obs.Trace

type ctx = {
  config : Config.t;
  gpk : Peace_groupsig.Group_sig.gpk;
  traced : bool ref;  (* wrap the benchmark's calls in spans *)
}

type conn = { fd : Unix.file_descr; users : User.t array; rng : Random.State.t }

let connect port =
  match Peace_sock.connect (Peace_sock.Tcp ("127.0.0.1", port)) with
  | Error e -> failwith ("connect: " ^ e)
  | Ok fd ->
    (* generous: a timeout here is a failed attempt, never a retry *)
    Peace_sock.set_timeout fd 60.0;
    fd

let span ctx name f = if !(ctx.traced) then Trace.with_span name f else f ()

let exchange ctx name fd tag payload =
  span ctx name @@ fun () ->
  match Frames.write fd tag payload with
  | Error e -> Error ("conn:" ^ e)
  | Ok () -> (
    match Frames.read fd with
    | Ok reply -> Ok reply
    | Error `Timeout -> Error "timeout"
    | Error `Eof -> Error "conn:eof"
    | Error (`Err e) -> Error ("conn:" ^ e))

let rejected_kind payload =
  match Frames.parse_rejected payload with
  | Some (code, _) -> "reject:" ^ Frames.error_name code
  | None -> "reject:?"

(* How an (M.2) is altered before it is sent: the correctness probes and
   the self-check's corrupted input use this. *)
type tamper = Honest | Flip_signature_byte

(* flips one byte of the group signature's last scalar, keeping the request
   decodable, so the server's proof check (not its decoder) must refuse it *)
let flip_signature gpk (request : Messages.access_request) =
  let open Peace_groupsig in
  let bytes = Bytes.of_string (Group_sig.signature_to_bytes gpk request.Messages.gsig) in
  let rec attempt i =
    if i >= Bytes.length bytes then failwith "no decodable signature flip"
    else begin
      let b = Bytes.copy bytes in
      let pos = Bytes.length b - 1 - i in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x01));
      match Group_sig.signature_of_bytes gpk (Bytes.to_string b) with
      | Some gsig when gsig <> request.Messages.gsig -> { request with Messages.gsig }
      | _ -> attempt (i + 1)
    end
  in
  attempt 0

type outcome = Ok_session | Failed of string

(* the latest (M.1) and (M.2) bytes seen, for the codec unit costs *)
let last_beacon = ref ""
let last_request = ref ""
let captured () = (!last_beacon, !last_request)

(* One full handshake as [user]. *)
let handshake ?(tamper = Honest) ctx fd user =
  span ctx "bench.handshake" @@ fun () ->
  match exchange ctx "bench.get_beacon" fd Frames.Get_beacon "" with
  | Error e -> Failed e
  | Ok (Frames.Beacon, bytes) -> (
    last_beacon := bytes;
    match span ctx "core.beacon_decode" (fun () -> Messages.beacon_of_bytes ctx.config bytes) with
    | None -> Failed "decode:beacon"
    | Some beacon -> (
      match span ctx "core.process_beacon" (fun () -> User.process_beacon user beacon) with
      | Error err -> Failed ("client:" ^ Protocol_error.to_string err)
      | Ok (request, pending) -> (
        let request =
          match tamper with
          | Honest -> request
          | Flip_signature_byte -> flip_signature ctx.gpk request
        in
        let m2 =
          span ctx "core.access_request_encode" (fun () ->
              Messages.access_request_to_bytes ctx.config ctx.gpk request)
        in
        last_request := m2;
        match exchange ctx "bench.access" fd Frames.Access m2 with
        | Error e -> Failed e
        | Ok (Frames.Confirm, bytes) -> (
          match
            span ctx "core.access_confirm_decode" (fun () ->
                Messages.access_confirm_of_bytes ctx.config bytes)
          with
          | None -> Failed "decode:confirm"
          | Some confirm -> (
            match
              span ctx "core.process_confirm" (fun () ->
                  User.process_confirm user pending confirm)
            with
            | Ok _session -> Ok_session
            | Error err -> Failed ("client:" ^ Protocol_error.to_string err)))
        | Ok (Frames.Rejected, payload) -> Failed (rejected_kind payload)
        | Ok _ -> Failed "protocol")))
  | Ok (Frames.Rejected, payload) -> Failed (rejected_kind payload)
  | Ok _ -> Failed "protocol"

(* What the client saw during a timed window. *)
type tally = {
  mutable attempted : int;
  mutable ok : int;
  mutable failures : (string * int) list;
  mutable latencies_ms : float list;
  mutable between_s : float;  (* spent between handshakes *)
}

let new_tally () = { attempted = 0; ok = 0; failures = []; latencies_ms = []; between_s = 0.0 }

let record tally ~from outcome =
  tally.attempted <- tally.attempted + 1;
  match outcome with
  | Ok_session ->
    tally.ok <- tally.ok + 1;
    tally.latencies_ms <- ((Stats.now () -. from) *. 1000.0) :: tally.latencies_ms
  | Failed kind ->
    let n = Option.value ~default:0 (List.assoc_opt kind tally.failures) in
    tally.failures <- (kind, n + 1) :: List.remove_assoc kind tally.failures

let merge tallies =
  let t = new_tally () in
  List.iter
    (fun x ->
      t.attempted <- t.attempted + x.attempted;
      t.ok <- t.ok + x.ok;
      t.latencies_ms <- x.latencies_ms @ t.latencies_ms;
      t.between_s <- t.between_s +. x.between_s;
      List.iter
        (fun (k, n) ->
          let m = Option.value ~default:0 (List.assoc_opt k t.failures) in
          t.failures <- (k, n + m) :: List.remove_assoc k t.failures)
        x.failures)
    tallies;
  t

let pick conn = conn.users.(Random.State.int conn.rng (Array.length conn.users))

(* Closed loop: each handshake starts when the previous one ended, after
   [between] (which returns the seconds it took); latency runs from
   Get_beacon sent to session installed. *)
let closed_loop ~tamper ~between ctx conn ~until =
  let tally = new_tally () in
  while Stats.now () < until do
    let from = Stats.now () in
    record tally ~from (handshake ~tamper:(tamper ()) ctx conn.fd (pick conn));
    tally.between_s <- tally.between_s +. between ()
  done;
  tally
