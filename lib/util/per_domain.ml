type 'a cell = { value : 'a; mutable busy : bool }
type 'a t = { key : 'a cell Domain.DLS.key; fresh : unit -> 'a }

let make fresh =
  { key = Domain.DLS.new_key (fun () -> { value = fresh (); busy = false }); fresh }

let use t f =
  let c = Domain.DLS.get t.key in
  if c.busy then f (t.fresh ())
  else begin
    c.busy <- true;
    match f c.value with
    | v ->
      c.busy <- false;
      v
    | exception e ->
      c.busy <- false;
      raise e
  end
