open Costar_grammar
open Costar_grammar.Symbols
open Config

exception Left_rec of nonterminal

(* Closure carries one visited-set snapshot per frame, mirroring the
   machine's visited set: pushing a frame for nonterminal [y] extends the
   top snapshot with [y], and popping a frame restores the caller's
   snapshot (the machine's "remove on return").  Expanding a nonterminal
   already in the top snapshot witnesses a nullable cycle, i.e. genuine
   left recursion.

   Frames are interned ids, so inspecting the top symbol is an array read
   ([Frames.head]) and pushing residues/right-hand sides is a hash-consing
   [Frames.cons]. *)
let closure g anl configs =
  let fr = Analysis.frames anl in
  let seen = Sll_tbl.create 64 in
  let stable = ref [] in
  let forked = ref false in
  let rec go cfg vises =
    if not (Sll_tbl.mem seen cfg) then begin
      Sll_tbl.add seen cfg ();
      if Frames.spine_is_nil cfg.s_frames then begin
        match cfg.s_ctx with
        | Ctx_accept -> stable := cfg :: !stable
        | Ctx_nt x ->
          (* Simulated return past the truncated stack: fork to every static
             caller continuation; accept if end-of-input is legal after x.
             This is the one place where SLL diverges from LL (which would
             return to the actual parse stack), so it is recorded. *)
          forked := true;
          List.iter
            (fun (y, beta) ->
              go
                { cfg with s_frames = Frames.cons fr beta Frames.nil; s_ctx = Ctx_nt y }
                [ Int_set.empty ])
            (Analysis.callers_framed anl x);
          if Analysis.follow_end anl x then
            go { cfg with s_frames = Frames.nil; s_ctx = Ctx_accept } []
      end
      else begin
        let top = Frames.spine_frame fr cfg.s_frames in
        let rest = Frames.spine_tail fr cfg.s_frames in
        match Frames.head fr top, vises with
        | Frames.Empty, _ :: vs -> go { cfg with s_frames = rest } vs
        | Frames.Term _, _ -> stable := cfg :: !stable
        | Frames.Nonterm (y, suf), vis :: vs ->
          if Int_set.mem y vis then raise (Left_rec y)
          else
            (* Do not stack an empty residue frame: it would pop vacuously
               later, and during long prediction scans (e.g. the XML
               attribute loop) such residues otherwise accumulate, making
               configurations grow linearly with the scan. *)
            let frames_below, vises_below =
              if suf = Frames.empty_frame then (rest, vs)
              else (Frames.cons fr suf rest, vis :: vs)
            in
            let vises = Int_set.add y vis :: vises_below in
            List.iter
              (fun ix ->
                go
                  { cfg with
                    s_frames = Frames.cons fr (Frames.rhs_frame fr ix) frames_below
                  }
                  vises)
              (Grammar.prods_of g y)
        | _, [] -> assert false (* one snapshot per frame *)
      end
    end
  in
  let fresh cfg =
    List.init (Frames.spine_length fr cfg.s_frames) (fun _ -> Int_set.empty)
  in
  match List.iter (fun c -> go c (fresh c)) configs with
  | () -> Ok (List.sort_uniq compare_sll !stable, !forked)
  | exception Left_rec x -> Error (Types.Left_recursive x)

(* Closure of a configuration set through the per-configuration memo table
   in the cache: closure(S) = union over c in S of closure({c}).  Closure
   never reads the prediction label — every configuration it reaches
   carries its start's [s_pred] unchanged — so the memo is keyed on the
   configuration with [s_pred = 0] and a hit is relabelled with the real
   prediction.  One entry then serves every alternative that reaches the
   same (frames, context) pair. *)
let closure_cached g anl cache configs =
  let rec go acc forked = function
    | [] -> Ok (List.sort_uniq compare_sll (List.concat acc), forked)
    | cfg :: rest -> (
      let key = if cfg.s_pred = 0 then cfg else { cfg with s_pred = 0 } in
      let result =
        match Cache.find_closure cache key with
        | Some r ->
          Instr.record_closure_hit ();
          r
        | None ->
          Instr.record_closure_miss ();
          let r = closure g anl [ key ] in
          Cache.add_closure cache key r;
          r
      in
      match result with
      | Error e -> Error e
      | Ok (stable, f) ->
        let stable =
          if cfg.s_pred = 0 then stable
          else List.map (fun c -> { c with s_pred = cfg.s_pred }) stable
        in
        go (stable :: acc) (forked || f) rest)
  in
  go [] false configs

let move anl configs a =
  let fr = Analysis.frames anl in
  List.filter_map
    (fun cfg ->
      if Frames.spine_is_nil cfg.s_frames then None
      else
        match Frames.head fr (Frames.spine_frame fr cfg.s_frames) with
        | Frames.Term (a', residue) when a' = a ->
          Some
            { cfg with
              s_frames =
                Frames.cons fr residue (Frames.spine_tail fr cfg.s_frames)
            }
        | _ -> None)
    configs

let init_configs g anl x =
  let fr = Analysis.frames anl in
  List.map
    (fun ix ->
      {
        s_pred = ix;
        s_frames = Frames.cons fr (Frames.rhs_frame fr ix) Frames.nil;
        s_ctx = Ctx_nt x;
      })
    (Grammar.prods_of g x)

(* The lookahead stream is an array cursor: [kinds] holds one terminal id
   per remaining token (valid up to [len]), [i] is the current position.
   The warm path never touches a token record — only [kinds.(i)]. *)
let rec loop g anl depth cache sid kinds len i =
  let info = Cache.info cache sid in
  match info.Cache.verdict with
  | Cache.V_empty -> (Types.Reject_pred, depth)
  | Cache.V_all_pred p -> (Types.Unique_pred p, depth)
  | Cache.V_pending ->
    if i >= len then
      match info.Cache.accepting with
      | [] -> (Types.Reject_pred, depth)
      | [ p ] -> (Types.Unique_pred p, depth)
      | p :: _ -> (Types.Ambig_pred p, depth)
    else begin
      let a = Bigarray.Array1.unsafe_get kinds i in
      Instr.record_cov_edge sid a;
      (* Warm path: a pair of array reads. *)
      let sid' = Cache.trans_get cache sid a in
      if sid' >= 0 then begin
        Instr.record_trans_hit ();
        loop g anl (depth + 1) cache sid' kinds len (i + 1)
      end
      else begin
        Instr.record_trans_miss ();
        match closure_cached g anl cache (move anl info.Cache.configs a) with
        | Error e -> (Types.Error_pred e, depth)
        | Ok (configs', _) ->
          let sid' = Cache.intern cache configs' in
          Cache.add_trans cache sid a sid';
          loop g anl (depth + 1) cache sid' kinds len (i + 1)
      end
    end

let init g anl cache x =
  (* Spine ids only mean something in the interner they were created in, so
     a cache consulted through a different analysis would read garbage; fail
     loudly instead. *)
  if Cache.frames cache != Analysis.frames anl then
    invalid_arg "Sll: cache belongs to a different analysis";
  match Cache.find_init cache x with
  | Some sid -> Ok sid
  | None -> (
    match closure_cached g anl cache (init_configs g anl x) with
    | Error e -> Error e
    | Ok (configs, _) ->
      let sid = Cache.intern cache configs in
      Cache.add_init cache x sid;
      Ok sid)

let prepare g anl cache x = ignore (init g anl cache x)

let predict_general g anl cache x kinds len i =
  match init g anl cache x with
  | Error e -> (Types.Error_pred e, 0)
  | Ok sid ->
    let (_, depth) as r = loop g anl 0 cache sid kinds len i in
    Instr.record_sll x depth;
    r

exception Fast_miss

(* Allocation-free walk over already-computed DFA transitions, returning
   preboxed verdicts; raises [Fast_miss] on the first uncomputed edge.  It
   never touches configurations or frames — only per-state verdicts and
   int transition rows — so it does not need the interner-identity guard of
   [init] (those facts are grammar-level and interner-independent). *)
let rec fast_verdict cache sid kinds len i =
  let info = Cache.info cache sid in
  match info.Cache.verdict with
  | Cache.V_empty -> Types.Reject_pred
  | Cache.V_all_pred _ -> info.Cache.decided_pred
  | Cache.V_pending ->
    if i >= len then info.Cache.eof_pred
    else
      let sid' = Cache.trans_get cache sid (Bigarray.Array1.unsafe_get kinds i) in
      if sid' >= 0 then fast_verdict cache sid' kinds len (i + 1)
      else raise_notrace Fast_miss

(* Warm fast path: once the relevant DFA fragment exists, a prediction is a
   chain of array reads ending in a preboxed verdict, paired with depth 0
   (a decided verdict's pair is preboxed too, so the hit allocates
   nothing).
   Any miss (or instrumentation, which wants depth counts or per-edge
   coverage) falls back to the general loop, which re-walks the short
   prefix and extends the DFA.  A fast-path reject re-walks too, so its
   depth is exact: rejects are cold by construction (each one ends the
   parse or triggers recovery). *)
let predict g anl cache x (w : Word.t) i =
  let kinds = w.Word.kinds and len = w.Word.len in
  if !Instr.enabled || !Instr.cov_enabled then
    predict_general g anl cache x kinds len i
  else
    let sid0 = Cache.init_get cache x in
    if sid0 < 0 then predict_general g anl cache x kinds len i
    else
      match fast_verdict cache sid0 kinds len i with
      | Types.Reject_pred -> predict_general g anl cache x kinds len i
      | Types.Unique_pred p -> Cache.unique_at cache p
      | p -> (p, 0)
      | exception Fast_miss -> predict_general g anl cache x kinds len i
