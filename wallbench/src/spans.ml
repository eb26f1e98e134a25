(* In-memory span recorder for the traced run.

   A span is (id, name, start, end, parent id, batch id), taken from outside
   the program around one call into a layer.  Per-name totals — count,
   total time and self time (the span minus the time its child spans
   cover) — are folded in online as each span closes, so they cover
   every span; the spans themselves are kept in preallocated arrays up
   to [capacity] spans and written out when the run ends.  Nothing here
   allocates per span. *)

type t = {
  names : string array;
  count : int array;  (* per name *)
  total_ns : int array;
  self_ns : int array;
  (* open-span stack *)
  stack_span : int array;
  stack_id : int array;
  stack_start : int array;
  stack_child : int array;
  mutable depth : int;
  mutable next_id : int;
  (* kept spans *)
  k_id : int array;
  k_name : int array;
  k_start : int array;
  k_end : int array;
  k_parent : int array;
  k_batch : int array;
  mutable kept : int;
  mutable seen : int;  (* spans closed, kept or not *)
  mutable batch : int;
  mutable on : bool;
}

let max_depth = 8
let capacity = 16_384

let create names =
  let n = Array.length names in
  {
    names;
    count = Array.make n 0;
    total_ns = Array.make n 0;
    self_ns = Array.make n 0;
    stack_span = Array.make max_depth 0;
    stack_id = Array.make max_depth 0;
    stack_start = Array.make max_depth 0;
    stack_child = Array.make max_depth 0;
    depth = 0;
    next_id = 0;
    k_id = Array.make capacity 0;
    k_name = Array.make capacity 0;
    k_start = Array.make capacity 0;
    k_end = Array.make capacity 0;
    k_parent = Array.make capacity (-1);
    k_batch = Array.make capacity 0;
    kept = 0;
    seen = 0;
    batch = 0;
    on = false;
  }

let set_batch t b = t.batch <- b

(* [enter t name] opens a span; a no-op while tracing is off. *)
let enter t name =
  if t.on then begin
    let d = t.depth in
    t.stack_span.(d) <- name;
    t.stack_id.(d) <- t.next_id;
    t.next_id <- t.next_id + 1;
    t.stack_child.(d) <- 0;
    t.depth <- d + 1;
    t.stack_start.(d) <- Clock.now_ns ()
  end

(* [leave_as t name] closes the innermost span under [name] — for a
   call whose outcome decides what the span was (a drain that found
   nothing is waiting, not work). *)
let leave_as t name =
  if t.on then begin
    let stop = Clock.now_ns () in
    let d = t.depth - 1 in
    t.depth <- d;
    let start = t.stack_start.(d) in
    let dur = stop - start in
    t.count.(name) <- t.count.(name) + 1;
    t.total_ns.(name) <- t.total_ns.(name) + dur;
    t.self_ns.(name) <- t.self_ns.(name) + dur - t.stack_child.(d);
    if d > 0 then t.stack_child.(d - 1) <- t.stack_child.(d - 1) + dur;
    if t.kept < capacity then begin
      let k = t.kept in
      t.k_id.(k) <- t.stack_id.(d);
      t.k_name.(k) <- name;
      t.k_start.(k) <- start;
      t.k_end.(k) <- stop;
      t.k_parent.(k) <- (if d > 0 then t.stack_id.(d - 1) else -1);
      t.k_batch.(k) <- t.batch;
      t.kept <- k + 1
    end;
    t.seen <- t.seen + 1
  end

let leave t = if t.on then leave_as t t.stack_span.(t.depth - 1)

let count t name = t.count.(name)
let total_ns t name = t.total_ns.(name)
let self_ns t name = t.self_ns.(name)

(* Chrome trace-event JSON ("X" complete events), loadable in Perfetto;
   times relative to the first kept span, in microseconds. *)
let write t path =
  let oc = open_out path in
  let t0 = if t.kept > 0 then t.k_start.(0) else 0 in
  output_string oc "{\"traceEvents\":[\n";
  for k = 0 to t.kept - 1 do
    Printf.fprintf oc
      "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"batch\":%d}}\n"
      (if k = 0 then "" else ",")
      t.names.(t.k_name.(k))
      (float_of_int (t.k_start.(k) - t0) /. 1e3)
      (float_of_int (t.k_end.(k) - t.k_start.(k)) /. 1e3)
      t.k_id.(k) t.k_parent.(k) t.k_batch.(k)
  done;
  Printf.fprintf oc "],\"spans_closed\":%d,\"spans_kept\":%d}\n" t.seen t.kept;
  close_out oc
