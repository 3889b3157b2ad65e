(** Transport loop for the NDJSON checking service: stdio for pipelines,
    a loopback TCP socket for long-lived sessions.

    Responses are written strictly in request order (the ["id"] field is
    client bookkeeping, never a reordering license): draining is what
    makes the output byte stream deterministic, so a cache hit queued
    behind a slow miss waits for it.  Reading and draining interleave —
    the loop multiplexes between new input and completed work, so a
    client that waits for each response before sending the next request
    never deadlocks, while a client that streams requests gets pipelined
    execution across the shared domain pool.

    Robustness: a malformed line is answered with an error object and the
    session continues; a line longer than {!max_line_bytes} terminates
    the session (there is no way to resync inside an unbounded token); a
    dropped TCP connection is logged and the next one accepted.  EOF (or
    an accepted [shutdown] request) stops intake, drains every in-flight
    response deterministically, then returns. *)

val max_line_bytes : int
(** 16 MiB: larger requests are refused to bound memory. *)

val run_stdio : Engine.t -> int
(** Serve one session on stdin/stdout; returns the process exit code
    (0 — a session that merely contained failing requests is still a
    successful serve). *)

val run_tcp : Engine.t -> port:int -> int
(** Bind 127.0.0.1:[port] ([port] 0 picks a free port), announce
    ["listening on 127.0.0.1:PORT"] on stderr, then serve connections
    one at a time until a [shutdown] request arrives.  Returns the exit
    code (2 when the socket cannot be bound). *)
