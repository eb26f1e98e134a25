(* Benchmark-side tests: allocation is counted on every domain, and the
   load generator's per-packet path allocates nothing. *)

open Wallbench
module Shard = Rp_engine.Shard

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

(* A worker domain's allocation shows in [Alloc.snapshot] once it is
   joined, while [Gc.minor_words] (calling domain only) misses it. *)
let test_all_domains () =
  let cells = 200_000 in
  let s0 = Alloc.snapshot () and w0 = Gc.minor_words () in
  let d =
    Domain.spawn (fun () ->
        let r = ref [] in
        for i = 1 to cells do
          r := Sys.opaque_identity [ i ]
        done;
        ignore (Sys.opaque_identity !r))
  in
  Domain.join d;
  let all = (Alloc.snapshot ()).Alloc.minor_words -. s0.Alloc.minor_words in
  let own = Gc.minor_words () -. w0 in
  (* three words per one-element list cell *)
  if all < float_of_int (3 * cells) then fail "all-domain words %.0f < %d" all (3 * cells);
  if own >= float_of_int cells then fail "calling-domain words %.0f should miss the worker" own;
  Printf.printf "all domains: %.0f words counted (calling domain alone: %.0f)\n" all own

(* Generate packets into the link, receive them in batches and feed
   each one's result to the load generator's sink (egress check, latency
   record, pool free): zero words per packet.  Results are prebuilt
   per pool slot, since building them is the engine's work. *)
let test_loadgen_alloc_free () =
  let gen = Bed.generate Bed.Cached_64b ~seed:7 in
  let bed = Bed.build Bed.Cached_64b gen ~seed:7 ~rep:0 in
  let d =
    Loadgen.create ~expected:(Checks.reference_egress gen) ~sim_ns_per_pkt:10_000 bed gen
  in
  Loadgen.prepare_open d ~rate:100_000 ~packets:100_000;
  d.Loadgen.open_base <- 0;
  let pool = bed.Bed.pool in
  let slots = Rp_pkt.Pool.capacity pool in
  let ms = Array.init slots (fun _ -> Rp_pkt.Pool.alloc pool ~key:gen.Gen.keys.(0) ~len:64) in
  let results = Array.make slots { Shard.m = ms.(0); outcome = Shard.Forwarded 1; faults = [] } in
  Array.iter
    (fun m ->
      results.(m.Rp_pkt.Mbuf.pool_slot) <- { Shard.m; outcome = Shard.Forwarded 1; faults = [] };
      Rp_pkt.Pool.free pool m)
    ms;
  let round () =
    for _ = 1 to Loadgen.batch do
      Loadgen.emit d
    done;
    let n = Rp_pkt.Link.receive_batch bed.Bed.link ~max:Loadgen.batch d.Loadgen.batch_buf in
    d.Loadgen.in_flight <- d.Loadgen.in_flight + n;
    for i = 0 to n - 1 do
      d.Loadgen.sink results.(d.Loadgen.batch_buf.(i).Rp_pkt.Mbuf.pool_slot)
    done
  in
  round ();
  let rounds = 2_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    round ()
  done;
  let words = Gc.minor_words () -. w0 in
  if words <> 0.0 then fail "load generator per-packet path allocated %.0f words" words;
  if d.Loadgen.completed <> (rounds + 1) * Loadgen.batch then fail "lost results";
  Printf.printf "load generator: %d packets, 0 words\n" (rounds * Loadgen.batch);
  Bed.teardown bed

let () =
  test_all_domains ();
  test_loadgen_alloc_free ()
