open Costar_grammar

type symbol =
  | T of string
  | NT of string

type tree =
  | Leaf of string * string
  | Node of string * tree list

type result =
  | Unique of tree
  | Ambig of tree
  | Reject
  | Error of string

(* compareNT / compareT: the string comparisons the paper's profiling
   identifies as dominant for large grammars. *)
let compare_nt (a : string) b = String.compare a b
let compare_t (a : string) b = String.compare a b

let compare_symbol s1 s2 =
  match s1, s2 with
  | T a, T b -> compare_t a b
  | NT x, NT y -> compare_nt x y
  | T _, NT _ -> -1
  | NT _, T _ -> 1

let rec compare_symbols l1 l2 =
  match l1, l2 with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | s1 :: r1, s2 :: r2 ->
    let c = compare_symbol s1 s2 in
    if c <> 0 then c else compare_symbols r1 r2

module SSet = Set.Make (String)
module SMap = Map.Make (String)

type grammar = {
  start : string;
  (* Production right-hand sides per nonterminal, in priority order; the
     global priority of a production is its (lhs, local index). *)
  by_lhs : symbol list list SMap.t;
  (* Derived analyses, all over string-keyed AVL maps. *)
  nullable : SSet.t;
  callers : (string * symbol list) list SMap.t;
  endable : SSet.t;
}

let nullable_seq nullable syms =
  List.for_all (function T _ -> false | NT x -> SSet.mem x nullable) syms

let compute_nullable by_lhs =
  let rec fix acc =
    let acc' =
      SMap.fold
        (fun x rhss acc ->
          if SSet.mem x acc then acc
          else if List.exists (nullable_seq acc) rhss then SSet.add x acc
          else acc)
        by_lhs acc
    in
    if SSet.equal acc acc' then acc else fix acc'
  in
  fix SSet.empty

let compute_callers by_lhs =
  SMap.fold
    (fun y rhss acc ->
      List.fold_left
        (fun acc rhs ->
          let rec go acc = function
            | [] -> acc
            | T _ :: rest -> go acc rest
            | NT x :: rest ->
              let entry = (y, rest) in
              let existing = Option.value ~default:[] (SMap.find_opt x acc) in
              let mem =
                List.exists
                  (fun (y', beta) ->
                    compare_nt y y' = 0 && compare_symbols rest beta = 0)
                  existing
              in
              let acc =
                if mem then acc else SMap.add x (existing @ [ entry ]) acc
              in
              go acc rest
          in
          go acc rhs)
        acc rhss)
    by_lhs SMap.empty

let compute_endable start nullable callers all_nts =
  let rec fix acc =
    let acc' =
      SSet.fold
        (fun x acc ->
          if SSet.mem x acc then acc
          else
            let cs = Option.value ~default:[] (SMap.find_opt x callers) in
            if
              List.exists
                (fun (y, beta) -> SSet.mem y acc && nullable_seq nullable beta)
                cs
            then SSet.add x acc
            else acc)
        all_nts acc
    in
    if SSet.equal acc acc' then acc else fix acc'
  in
  fix (SSet.singleton start)

let make ~start prods =
  let by_lhs =
    List.fold_left
      (fun acc (lhs, rhs) ->
        let existing = Option.value ~default:[] (SMap.find_opt lhs acc) in
        SMap.add lhs (existing @ [ rhs ]) acc)
      SMap.empty prods
  in
  let nullable = compute_nullable by_lhs in
  let callers = compute_callers by_lhs in
  let all_nts =
    SMap.fold (fun x _ acc -> SSet.add x acc) by_lhs SSet.empty
  in
  let endable = compute_endable start nullable callers all_nts in
  { start; by_lhs; nullable; callers; endable }

let of_grammar g =
  let sym = function
    | Symbols.T a -> T (Grammar.terminal_name g a)
    | Symbols.NT x -> NT (Grammar.nonterminal_name g x)
  in
  make
    ~start:(Grammar.nonterminal_name g (Grammar.start g))
    (Array.to_list
       (Array.map
          (fun p ->
            (Grammar.nonterminal_name g p.Grammar.lhs, List.map sym p.Grammar.rhs))
          (Grammar.prods g)))

let rhss g x = Option.value ~default:[] (SMap.find_opt x g.by_lhs)
let callers_of g x = Option.value ~default:[] (SMap.find_opt x g.callers)

(* --- Prediction configurations ------------------------------------------ *)

(* pred is (lhs, local production index): grammar-order priority. *)
type ctx =
  | Ctx_nt of string
  | Ctx_accept

type config = {
  pred : int;
  frames : symbol list list;
  ctx : ctx;
}

let rec compare_frames f1 f2 =
  match f1, f2 with
  | [], [] -> 0
  | [], _ -> -1
  | _, [] -> 1
  | s1 :: r1, s2 :: r2 ->
    let c = compare_symbols s1 s2 in
    if c <> 0 then c else compare_frames r1 r2

let compare_ctx c1 c2 =
  match c1, c2 with
  | Ctx_nt x, Ctx_nt y -> compare_nt x y
  | Ctx_nt _, Ctx_accept -> -1
  | Ctx_accept, Ctx_nt _ -> 1
  | Ctx_accept, Ctx_accept -> 0

let compare_config c1 c2 =
  let c = Int.compare c1.pred c2.pred in
  if c <> 0 then c
  else
    let c = compare_frames c1.frames c2.frames in
    if c <> 0 then c else compare_ctx c1.ctx c2.ctx

module Cfg_set = Set.Make (struct
  type t = config

  let compare = compare_config
end)

exception Left_rec of string

(* SLL closure with per-frame visited snapshots (same scheme as the core;
   see Sll.closure there). *)
let closure g configs =
  let seen = ref Cfg_set.empty in
  let stable = ref [] in
  let rec go cfg vises =
    if not (Cfg_set.mem cfg !seen) then begin
      seen := Cfg_set.add cfg !seen;
      match cfg.frames, vises with
      | [], _ -> (
        match cfg.ctx with
        | Ctx_accept -> stable := cfg :: !stable
        | Ctx_nt x ->
          List.iter
            (fun (y, beta) ->
              go { cfg with frames = [ beta ]; ctx = Ctx_nt y } [ SSet.empty ])
            (callers_of g x);
          if SSet.mem x g.endable then
            go { cfg with frames = []; ctx = Ctx_accept } [])
      | [] :: rest, _ :: vs -> go { cfg with frames = rest } vs
      | (T _ :: _) :: _, _ -> stable := cfg :: !stable
      | (NT y :: suf) :: rest, vis :: vs ->
        if SSet.mem y vis then raise (Left_rec y)
        else
          let vises = SSet.add y vis :: vis :: vs in
          List.iter
            (fun rhs -> go { cfg with frames = rhs :: suf :: rest } vises)
            (rhss g y)
      | _ :: _, [] -> assert false
    end
  in
  match
    List.iter (fun c -> go c (List.map (fun _ -> SSet.empty) c.frames)) configs
  with
  | () -> Ok (List.sort_uniq compare_config !stable)
  | exception Left_rec x -> Error ("left-recursive nonterminal " ^ x)

let move configs a =
  List.filter_map
    (fun cfg ->
      match cfg.frames with
      | (T a' :: suf) :: rest when compare_t a' a = 0 ->
        Some { cfg with frames = suf :: rest }
      | _ -> None)
    configs

let preds configs = List.sort_uniq Int.compare (List.map (fun c -> c.pred) configs)

let accepting cfg = cfg.ctx = Ctx_accept && cfg.frames = []

(* --- SLL prediction with a Map-based DFA cache --------------------------- *)

module Key = struct
  type t = config list

  let rec compare l1 l2 =
    match l1, l2 with
    | [], [] -> 0
    | [], _ -> -1
    | _, [] -> 1
    | c1 :: r1, c2 :: r2 ->
      let c = compare_config c1 c2 in
      if c <> 0 then c else compare r1 r2
end

module Key_map = Map.Make (Key)
module IMap = Map.Make (Int)

module TKey = struct
  type t = int * string

  let compare (s1, a1) (s2, a2) =
    let c = Int.compare s1 s2 in
    if c <> 0 then c else compare_t a1 a2
end

module TMap = Map.Make (TKey)

type dfa = {
  ids : int Key_map.t;
  cfgs : config list IMap.t;
  trans : int TMap.t;
  inits : int SMap.t;
  next : int;
}

let empty_dfa =
  { ids = Key_map.empty; cfgs = IMap.empty; trans = TMap.empty; inits = SMap.empty; next = 0 }

let intern cache configs =
  match Key_map.find_opt configs cache.ids with
  | Some sid -> (cache, sid)
  | None ->
    let sid = cache.next in
    ( {
        cache with
        ids = Key_map.add configs sid cache.ids;
        cfgs = IMap.add sid configs cache.cfgs;
        next = sid + 1;
      },
      sid )

type 'a prediction =
  | Unique_p of 'a
  | Ambig_p of 'a
  | Reject_p
  | Error_p of string

let sll_predict g cache x tokens =
  let init () =
    match SMap.find_opt x cache.inits with
    | Some sid -> Ok (cache, sid)
    | None -> (
      let init_configs =
        List.mapi (fun i rhs -> { pred = i; frames = [ rhs ]; ctx = Ctx_nt x }) (rhss g x)
      in
      match closure g init_configs with
      | Error e -> Error e
      | Ok configs ->
        let cache, sid = intern cache configs in
        Ok ({ cache with inits = SMap.add x sid cache.inits }, sid))
  in
  match init () with
  | Error e -> (cache, Error_p e)
  | Ok (cache, sid0) ->
    let rec walk cache sid tokens =
      let configs = IMap.find sid cache.cfgs in
      match preds configs with
      | [] -> (cache, Reject_p)
      | [ p ] -> (cache, Unique_p p)
      | _ -> (
        match tokens with
        | [] -> (
          match preds (List.filter accepting configs) with
          | [] -> (cache, Reject_p)
          | [ p ] -> (cache, Unique_p p)
          | p :: _ -> (cache, Ambig_p p))
        | (a, _) :: rest -> (
          match TMap.find_opt (sid, a) cache.trans with
          | Some sid' -> walk cache sid' rest
          | None -> (
            match closure g (move configs a) with
            | Error e -> (cache, Error_p e)
            | Ok configs' ->
              let cache, sid' = intern cache configs' in
              let cache = { cache with trans = TMap.add (sid, a) sid' cache.trans } in
              walk cache sid' rest)))
    in
    walk cache sid0 tokens

(* --- LL prediction -------------------------------------------------------- *)

type ll_config = {
  l_pred : int;
  l_frames : symbol list list;
}

let compare_ll c1 c2 =
  let c = Int.compare c1.l_pred c2.l_pred in
  if c <> 0 then c else compare_frames c1.l_frames c2.l_frames

module Ll_set = Set.Make (struct
  type t = ll_config

  let compare = compare_ll
end)

let ll_closure g configs =
  let seen = ref Ll_set.empty in
  let stable = ref [] in
  let rec go cfg vises =
    if not (Ll_set.mem cfg !seen) then begin
      seen := Ll_set.add cfg !seen;
      match cfg.l_frames, vises with
      | [], _ -> stable := cfg :: !stable
      | [] :: rest, _ :: vs -> go { cfg with l_frames = rest } vs
      | (T _ :: _) :: _, _ -> stable := cfg :: !stable
      | (NT y :: suf) :: rest, vis :: vs ->
        if SSet.mem y vis then raise (Left_rec y)
        else
          let vises = SSet.add y vis :: vis :: vs in
          List.iter
            (fun rhs -> go { cfg with l_frames = rhs :: suf :: rest } vises)
            (rhss g y)
      | _ :: _, [] -> assert false
    end
  in
  match
    List.iter (fun c -> go c (List.map (fun _ -> SSet.empty) c.l_frames)) configs
  with
  | () -> Ok (List.sort_uniq compare_ll !stable)
  | exception Left_rec x -> Error ("left-recursive nonterminal " ^ x)

let ll_predict g x conts tokens =
  let ll_move configs a =
    List.filter_map
      (fun cfg ->
        match cfg.l_frames with
        | (T a' :: suf) :: rest when compare_t a' a = 0 ->
          Some { cfg with l_frames = suf :: rest }
        | _ -> None)
      configs
  in
  let l_preds cs = List.sort_uniq Int.compare (List.map (fun c -> c.l_pred) cs) in
  let rec loop configs tokens =
    match l_preds configs with
    | [] -> Reject_p
    | [ p ] -> Unique_p p
    | _ -> (
      match tokens with
      | [] -> (
        match l_preds (List.filter (fun c -> c.l_frames = []) configs) with
        | [] -> Reject_p
        | [ p ] -> Unique_p p
        | p :: _ -> Ambig_p p)
      | (a, _) :: rest -> (
        match ll_closure g (ll_move configs a) with
        | Error e -> Error_p e
        | Ok configs' -> loop configs' rest))
  in
  let init =
    List.mapi (fun i rhs -> { l_pred = i; l_frames = rhs :: conts }) (rhss g x)
  in
  match ll_closure g init with
  | Error e -> Error_p e
  | Ok configs -> loop configs tokens

let adaptive_predict g cache x conts tokens =
  match rhss g x with
  | [] -> (cache, Reject_p)
  | [ _ ] -> (cache, Unique_p 0)
  | _ -> (
    match sll_predict g cache x tokens with
    | (_, (Unique_p _ | Reject_p | Error_p _)) as r -> r
    | cache, Ambig_p _ -> (cache, ll_predict g x conts tokens))

(* --- The stack machine ---------------------------------------------------- *)

type frame = {
  label : string option;
  trees_rev : tree list;
  suf : symbol list;
}

type cache = dfa ref

let new_cache () = ref empty_dfa

let parse ?cache g tokens =
  let store = match cache with Some c -> c | None -> new_cache () in
  let rec go top frames cache tokens visited unique =
    match top.suf with
    | T a :: suf -> (
      match tokens with
      | (a', lex) :: rest when compare_t a a' = 0 ->
        go
          { top with trees_rev = Leaf (a, lex) :: top.trees_rev; suf }
          frames cache rest SSet.empty unique
      | _ -> Reject)
    | NT x :: suf ->
      if SSet.mem x visited then Error ("left-recursive nonterminal " ^ x)
      else begin
        let conts = suf :: List.map (fun f -> f.suf) frames in
        let cache, p = adaptive_predict g cache x conts tokens in
        store := cache;
        match p with
        | Unique_p i ->
          go
            { label = Some x; trees_rev = []; suf = List.nth (rhss g x) i }
            ({ top with suf } :: frames)
            cache tokens (SSet.add x visited) unique
        | Ambig_p i ->
          go
            { label = Some x; trees_rev = []; suf = List.nth (rhss g x) i }
            ({ top with suf } :: frames)
            cache tokens (SSet.add x visited) false
        | Reject_p -> Reject
        | Error_p e -> Error e
      end
    | [] -> (
      match frames, top.label with
      | caller :: frames', Some x ->
        let node = Node (x, List.rev top.trees_rev) in
        go
          { caller with trees_rev = node :: caller.trees_rev }
          frames' cache tokens (SSet.remove x visited) unique
      | [], None -> (
        match tokens, top.trees_rev with
        | [], [ v ] -> if unique then Unique v else Ambig v
        | _ :: _, _ -> Reject
        | [], _ -> Error "malformed final configuration")
      | _ -> Error "malformed stack")
  in
  go
    { label = None; trees_rev = []; suf = [ NT g.start ] }
    [] !store tokens SSet.empty true

let parse_tokens ?cache eg g tokens =
  parse ?cache eg
    (List.map
       (fun t ->
         (Grammar.terminal_name g t.Token.term, t.Token.lexeme))
       tokens)
