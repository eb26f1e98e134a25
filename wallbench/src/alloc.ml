(* Minor-heap words allocated by every domain of the process.

   [Gc.minor_words] counts the calling domain only, and the per-domain
   figures [Gc.quick_stat] sums are samples refreshed at each minor
   collection (a domain's figures become exact when it terminates).
   A forced minor collection is stop-the-world, so it refreshes every
   running domain's sample; reading [quick_stat] right after it is
   exact for all domains, live or joined. *)

type snapshot = {
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let snapshot () =
  Gc.minor ();
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
  }

(* OCaml-heap megabytes reachable from [v]: the live data of one
   structure, whatever else the process holds (off-heap bigarray
   payloads are not counted).  Walks the whole structure, so call it
   outside timed code, with no other domain running. *)
let reachable_mb v = float_of_int (Obj.reachable_words (Obj.repr v) * (Sys.word_size / 8)) /. 1e6
