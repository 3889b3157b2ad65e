(* Cold checks through the CLI, the way a user runs them: one
   `dfcheck check --json` (or `dfcheck spec check --json` on a generated
   spec) per operation, each a fresh process timed from spawn to exit. *)

module Json = Dfr_util.Json
module Prng = Dfr_util.Prng

(* A seeded comment/whitespace variant: the parser does the same work,
   the report must not change. *)
let variant rng text =
  Printf.sprintf "# dfbench variant %d\n%s%s" (Prng.int rng 1_000_000) text
    (String.make (Prng.int rng 3) '\n')

let run (ctx : Table.ctx) (o : Table.outcome) =
  let c = Table.field "check" ctx.params in
  let algo = Table.str "algo" c and topo = Table.str_opt "topology" c in
  let as_spec = Table.opt "spec" c = Some (Json.Bool true) in
  let expect = Table.field "expect" c in
  let name = ctx.wl.Table.wname in
  let rss = ref 0. in
  let dfcheck args =
    let out, ex = Proc.run ~log:(Table.log ctx) ctx.dfcheck args in
    rss := Float.max !rss ex.Proc.rss_mb;
    (out, ex)
  in
  let _, ex = dfcheck [ "list" ] in
  if ex.Proc.code <> 0 then Table.failure o "dfcheck list (binary page-in) exited %d" ex.Proc.code;
  let rng = Prng.create ctx.seed in
  let spec = ref "" in
  let spec_file = Table.work_file ctx (name ^ ".dfr") in
  let trace_file = Table.work_file ctx (name ^ ".cli-trace.json") in
  let args () =
    (if as_spec then begin
       Out_channel.with_open_bin spec_file (fun oc -> output_string oc (variant rng !spec));
       [ "spec"; "check"; "--json"; spec_file ]
     end
     else [ "check"; "-a"; algo; "--json" ] @ match topo with Some t -> [ "-t"; t ] | None -> [])
    @ if ctx.trace then [ "--trace"; trace_file ] else []
  in
  let first = ref None in
  let check i =
    let args = args () in
    let start_us = Spans.now_us ctx.spans in
    let out, ex =
      Spans.span ctx.spans ~req:i "cli.check" (fun () ->
          let r = dfcheck args in
          Spans.adopt ctx.spans ~start_us ~label:"dfcheck" trace_file;
          r)
    in
    Table.attempt o
      (match Table.check_report ~expect ~exit_code:ex.Proc.code out with
      | Some _ as bad -> bad
      | None -> (
        match !first with
        | None ->
          first := Some out;
          None
        | Some f when f = out -> None
        | Some _ -> Some "report bytes differ between repeats of the same instance"));
    ex.Proc.wall_s
  in
  (* set-up: build the input (the printer's reprint for a spec) and run the
     first check, whose report every later check must repeat.  A cold CLI
     check has no other set-up, so this is what a change to the checker
     can move. *)
  let setups =
    List.init (Table.setups ctx) (fun i ->
        let t0 = Proc.now () in
        if as_spec then spec := Pipeline.spec_text algo topo;
        ignore (check (-1 - i));
        let t1 = Proc.now () in
        Speed.tick ctx.speed;
        (t1, t1 -. t0))
  in
  let samples = ref [] in
  let loop =
    Table.measure ~speed:ctx.speed ~seconds:ctx.seconds ctx.params (fun i ->
        let ms = check i *. 1000. in
        samples := (Proc.now (), ms) :: !samples)
  in
  Table.e2e o ~setups ~samples:(List.rev !samples) ~loop ~rss_mb:!rss;
  Table.not_reached o
    [
      ("incr.fast_frac", "fraction");
      ("incr.patched_dests", "count");
      ("incr.reemitted_dests", "count");
      ("serve.cache_hit_frac", "fraction");
    ];
  if ctx.trace then begin
    let source = if as_spec then Pipeline.Spec !spec else Pipeline.Named (algo, topo) in
    let digests = Pipeline.per_layer ctx o [ source ] in
    match !first with
    | Some out when digests <> [ Digest.to_hex (Digest.string out) ] ->
      Table.failure o "in-process pipeline report differs from the CLI's --json bytes"
    | _ -> ()
  end
