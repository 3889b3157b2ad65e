(* Child processes for the harness: at most one at a time, each reaped
   with wait4 so its peak RSS is its own. *)

module Monotime = Dfr_util.Monotime

external wait4 : int -> int * int = "dfbench_wait4"

type exit = {
  code : int;  (** exit code, or 128 + signal *)
  rss_mb : float;  (** the child's own peak resident set *)
  wall_s : float;  (** spawn to reap *)
}

let now = Monotime.now

(* Children inherit the caller's environment minus DFR_DOMAINS, the
   domain-count override the serving layer's docs mention, so every child
   runs at the machine's default parallelism. *)
let env =
  lazy
    (Unix.environment () |> Array.to_list
    |> List.filter (fun kv ->
           not (String.length kv >= 12 && String.sub kv 0 12 = "DFR_DOMAINS="))
    |> Array.of_list)

(* pids not yet reaped; killed and reaped if the harness exits early,
   including on SIGTERM or SIGINT *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (wait4 pid) with Failure _ -> ())
        !live);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 130))

let log_fd log =
  Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644

let spawn ~stdin ~stdout ~stderr prog args =
  let pid =
    Unix.create_process_env prog
      (Array.of_list (prog :: args))
      (Lazy.force env) stdin stdout stderr
  in
  live := pid :: !live;
  pid

let reap pid ~t0 =
  let code, kb = wait4 pid in
  live := List.filter (( <> ) pid) !live;
  { code; rss_mb = float_of_int kb /. 1024.; wall_s = now () -. t0 }

let read_all fd =
  let buf = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* An already-closed pipe as stdin: the child sees EOF at once. *)
let empty_stdin () =
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.close w;
  r

(* Run to completion; stdout is captured, stderr appended to [log]. *)
let run ~log prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let err = log_fd log and stdin = empty_stdin () in
  let t0 = now () in
  let pid = spawn ~stdin ~stdout:w ~stderr:err prog args in
  List.iter Unix.close [ w; err; stdin ];
  let out = Fun.protect ~finally:(fun () -> Unix.close r) (fun () -> read_all r) in
  (out, reap pid ~t0)

(* A long-lived child spoken to over its stdin/stdout (the serve loop). *)
type session = { pid : int; send : out_channel; recv : in_channel; t0 : float }

let open_session ~log prog args =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = log_fd log in
  let t0 = now () in
  let pid = spawn ~stdin:in_r ~stdout:out_w ~stderr:err prog args in
  List.iter Unix.close [ in_r; out_w; err ];
  { pid; send = Unix.out_channel_of_descr in_w; recv = Unix.in_channel_of_descr out_r; t0 }

let close_session s =
  close_out_noerr s.send;
  let ex = reap s.pid ~t0:s.t0 in
  close_in_noerr s.recv;
  ex
