open Costar_grammar
open Costar_grammar.Symbols
open Config

exception Left_rec of nonterminal

(* See the comment on [Sll.closure]: one visited-set snapshot per frame,
   restored on pop, so that completed nullable subtrees do not poison later
   expansions of the same nonterminal.  LL configurations are interned like
   SLL ones (the [seen] table hashes two ints per entry); unlike SLL
   closure, the simulated stack here is the parser's full remaining suffix
   stack, so exhausting it means accepting position rather than a
   stable-return fork. *)
let closure g anl configs =
  let fr = Analysis.frames anl in
  let seen : (ll, unit) Hashtbl.t = Hashtbl.create 64 in
  let stable = ref [] in
  let rec go cfg vises =
    if not (Hashtbl.mem seen cfg) then begin
      Hashtbl.add seen cfg ();
      if Frames.spine_is_nil cfg.l_frames then
        (* The simulated stack is exhausted: this subparser is in accepting
           position (viable only if the input ends here). *)
        stable := cfg :: !stable
      else begin
        let top = Frames.spine_frame fr cfg.l_frames in
        let rest = Frames.spine_tail fr cfg.l_frames in
        match Frames.head fr top, vises with
        | Frames.Empty, _ :: vs -> go { cfg with l_frames = rest } vs
        | Frames.Term _, _ -> stable := cfg :: !stable
        | Frames.Nonterm (y, suf), vis :: vs ->
          if Int_set.mem y vis then raise (Left_rec y)
          else
            (* See Sll.closure: skip empty residue frames. *)
            let frames_below, vises_below =
              if suf = Frames.empty_frame then (rest, vs)
              else (Frames.cons fr suf rest, vis :: vs)
            in
            let vises = Int_set.add y vis :: vises_below in
            List.iter
              (fun ix ->
                go
                  { cfg with
                    l_frames = Frames.cons fr (Frames.rhs_frame fr ix) frames_below
                  }
                  vises)
              (Grammar.prods_of g y)
        | _, [] -> assert false (* one snapshot per frame *)
      end
    end
  in
  let fresh cfg =
    List.init (Frames.spine_length fr cfg.l_frames) (fun _ -> Int_set.empty)
  in
  match List.iter (fun c -> go c (fresh c)) configs with
  | () -> Ok (List.sort_uniq compare_ll !stable)
  | exception Left_rec x -> Error (Types.Left_recursive x)

let move anl configs a =
  let fr = Analysis.frames anl in
  List.filter_map
    (fun cfg ->
      if Frames.spine_is_nil cfg.l_frames then None
      else
        match Frames.head fr (Frames.spine_frame fr cfg.l_frames) with
        | Frames.Term (a', residue) when a' = a ->
          Some
            { cfg with
              l_frames =
                Frames.cons fr residue (Frames.spine_tail fr cfg.l_frames)
            }
        | _ -> None)
    configs

let init_configs g anl x conts =
  let fr = Analysis.frames anl in
  (* The parser's continuations are right-hand-side suffixes (plus the
     bottom [NT start] frame), so interning them is a table hit in the
     common case and a one-time dynamic insertion otherwise. *)
  let conts_spine = Frames.spine_of_frames fr conts in
  List.map
    (fun ix ->
      {
        l_pred = ix;
        l_frames = Frames.cons fr (Frames.rhs_frame fr ix) conts_spine;
      })
    (Grammar.prods_of g x)

let is_accepting cfg = Frames.spine_is_nil cfg.l_frames

(* Lookahead is an array cursor (terminal ids in [w.kinds], valid up to
   [w.len], starting at [i0]); LL prediction is rare (SLL failover only),
   but it shares the machine's input representation so the fallback needs
   no list reconstruction. *)
let predict g anl x conts (w : Word.t) i0 =
  let kinds = w.Word.kinds and len = w.Word.len in
  let rec loop depth configs i =
    match preds_of_ll configs with
    | [] -> (Types.Reject_pred, depth)
    | [ p ] -> (Types.Unique_pred p, depth)
    | _ ->
      if i >= len then
        match preds_of_ll (List.filter is_accepting configs) with
        | [] -> (Types.Reject_pred, depth)
        | [ p ] -> (Types.Unique_pred p, depth)
        | p :: _ -> (Types.Ambig_pred p, depth)
      else (
        match closure g anl (move anl configs (Bigarray.Array1.unsafe_get kinds i)) with
        | Error e -> (Types.Error_pred e, depth)
        | Ok configs' -> loop (depth + 1) configs' (i + 1))
  in
  match closure g anl (init_configs g anl x conts) with
  | Error e -> (Types.Error_pred e, 0)
  | Ok configs ->
    let (_, depth) as r = loop 0 configs i0 in
    Instr.record_ll x depth;
    r
