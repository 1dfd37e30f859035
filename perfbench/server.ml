(* The authority side of light_clean, run in a child process forked
   before any domain exists, so the client and the server do not share
   OCaml's stop-the-world minor collections.

   Control protocol over two pipes. Child -> parent: one line,
   ["READY <port>"] or ["ERR <message>"]. Parent -> child, one command
   per line:
   - [M] marks a window boundary (CPU time and registry counters are
     snapshotted);
   - [T] starts collecting spans;
   - [E] stops the authority, reports every snapshot, the spans and the
     peak RSS, then exits;
   - [Q] stops the authority and exits without a report. *)

module Registry = Peace_obs.Registry

type spec = {
  params : Peace_pairing.Params.t;
  deploy_seed : string;
  n_users : int;
}

let child spec ~ready ~control ~report =
  let say oc line =
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  let ready = Unix.out_channel_of_descr ready in
  match
    let tb =
      Peace_service.Testbed.make ~params:spec.params ~seed:spec.deploy_seed
        ~n_users:spec.n_users ()
    in
    Peace_service.Authority.start ~config:tb.Peace_service.Testbed.tb_config
      ~router:tb.Peace_service.Testbed.tb_router
      (Peace_sock.Tcp ("127.0.0.1", 0))
  with
  | exception e -> say ready ("ERR " ^ Printexc.to_string e); 3
  | Error e -> say ready ("ERR " ^ e); 3
  | Ok auth ->
    let port =
      match Peace_service.Authority.bound_addr auth with
      | Peace_sock.Tcp (_, p) -> p
      | Peace_sock.Unix_path _ -> 0
    in
    say ready (Printf.sprintf "READY %d" port);
    let control = Unix.in_channel_of_descr control in
    let report = Unix.out_channel_of_descr report in
    let profile = Peace_obs.Profile.create () in
    let snaps = ref [] in
    let rec loop () =
      match input_line control with
      | exception End_of_file -> Peace_service.Authority.stop auth; 0
      | "M" ->
        snaps := (Stats.cpu_s (), Registry.counters ()) :: !snaps;
        loop ()
      | "T" -> Peace_obs.Profile.install profile; loop ()
      | "Q" -> Peace_service.Authority.stop auth; 0
      | "E" ->
        Peace_service.Authority.stop auth;
        Peace_obs.Profile.uninstall ();
        List.iteri
          (fun i (cpu, counters) ->
            say report (Printf.sprintf "SNAP %d %.6f" i cpu);
            List.iter
              (fun (name, v) -> say report (Printf.sprintf "CTR %d %d %s" i v name))
              counters)
          (List.rev !snaps);
        List.iter
          (fun (name, (count, total, self)) ->
            say report (Printf.sprintf "SPAN %d %d %d %s" count total self name))
          (Stats.span_totals profile);
        say report (Printf.sprintf "RSS %.3f" (Stats.peak_rss_mb ()));
        say report "END";
        0
      | _ -> loop ()
    in
    loop ()

type report = {
  snapshots : (float * (string * int) list) list;  (* CPU s, counters *)
  spans : (string * (int * int * int)) list;
  rss_mb : float;
}

type t = {
  pid : int;
  port : int;
  control : out_channel;
  report_ic : in_channel;
}

let live : int list ref = ref []

(* every child still running when the benchmark exits is killed and reaped *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let reap t =
  (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) t.pid) !live

(* Forks the server child. Must run before the calling process spawns a
   domain. Returns once the child is building; [await_ready] blocks for its
   port. *)
let spawn spec =
  flush stdout;
  flush stderr;
  let ready_r, ready_w = Unix.pipe ~cloexec:true () in
  let control_r, control_w = Unix.pipe ~cloexec:true () in
  let report_r, report_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close ready_r;
    Unix.close control_w;
    Unix.close report_r;
    let code =
      try child spec ~ready:ready_w ~control:control_r ~report:report_w
      with _ -> 4
    in
    Unix._exit code
  | pid ->
    live := pid :: !live;
    Unix.close ready_w;
    Unix.close control_r;
    Unix.close report_w;
    (pid, Unix.in_channel_of_descr ready_r, Unix.out_channel_of_descr control_w,
     Unix.in_channel_of_descr report_r)

let await_ready (pid, ready_ic, control, report_ic) =
  let line = try input_line ready_ic with End_of_file -> "ERR server exited" in
  close_in ready_ic;
  match String.split_on_char ' ' line with
  | [ "READY"; port ] -> Ok { pid; port = int_of_string port; control; report_ic }
  | _ ->
    reap { pid; port = 0; control; report_ic };
    Error line

let command t c =
  output_string t.control c;
  output_char t.control '\n';
  flush t.control

let quit t =
  command t "Q";
  close_out_noerr t.control;
  close_in_noerr t.report_ic;
  reap t

let finish t =
  command t "E";
  let snaps = Hashtbl.create 4 and spans = ref [] and rss = ref 0.0 in
  let snap i =
    match Hashtbl.find_opt snaps i with
    | Some s -> s
    | None ->
      let s = (ref 0.0, ref []) in
      Hashtbl.replace snaps i s;
      s
  in
  let rec read () =
    match input_line t.report_ic with
    | exception End_of_file -> ()
    | "END" -> ()
    | line ->
      (match String.split_on_char ' ' line with
      | [ "SNAP"; i; cpu ] -> fst (snap (int_of_string i)) := float_of_string cpu
      | [ "CTR"; i; v; name ] ->
        let c = snd (snap (int_of_string i)) in
        c := (name, int_of_string v) :: !c
      | [ "SPAN"; count; total; self; name ] ->
        spans :=
          (name, (int_of_string count, int_of_string total, int_of_string self))
          :: !spans
      | [ "RSS"; mb ] -> rss := float_of_string mb
      | _ -> ());
      read ()
  in
  read ();
  close_out_noerr t.control;
  close_in_noerr t.report_ic;
  reap t;
  let n = Hashtbl.length snaps in
  {
    snapshots = List.init n (fun i -> let cpu, c = snap i in (!cpu, !c));
    spans = !spans;
    rss_mb = !rss;
  }
