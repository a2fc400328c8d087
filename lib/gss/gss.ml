open Costar_grammar
open Costar_grammar.Symbols
module Types = Costar_core.Types

(* --- Hash-consed stack nodes --------------------------------------------- *)

type stack =
  | Bottom_nt of nonterminal
  | Bottom_accept
  | Node of node

and node = {
  id : int;
  suf : symbol list;
  parents : stack list;  (* canonical: sorted by stack_key, distinct *)
}

(* Total key over stacks: bottoms get negative codes, nodes their id. *)
let stack_key = function
  | Bottom_accept -> -1
  | Bottom_nt x -> -2 - x
  | Node n -> n.id

module Node_key = struct
  type t = symbol list * int list  (* suf, parent keys *)

  let equal (s1, p1) (s2, p2) =
    compare_symbols s1 s2 = 0 && List.equal Int.equal p1 p2

  let hash (s, p) = Hashtbl.hash_param 100 1000 (s, p)
end

module Node_tbl = Hashtbl.Make (Node_key)

(* --- Configurations ------------------------------------------------------- *)

(* The GSS twist: one configuration per (prediction, current frame), its
   calling contexts merged into the node's parent set. *)
type config = {
  pred : int;
  stack : stack;
}

type info = {
  configs : config list;
  verdict : int;  (* -2 empty | >=0 all same pred | -1 pending *)
  accepting : int list;
}

type engine = {
  eg : Grammar.t;
  eanl : Analysis.t;
  en_terms : int;
  enodes : node Node_tbl.t;
  mutable enext_node : int;
  estates : (((int * int) list, int) Hashtbl.t);
  mutable einfos : info array;
  mutable en_states : int;
  etrans : (int, int) Hashtbl.t;
  einits : int array;
  mutable epeak : int;
}

let mk_node e suf parents =
  let parents =
    List.sort_uniq (fun a b -> Int.compare (stack_key a) (stack_key b)) parents
  in
  let key = (suf, List.map stack_key parents) in
  match Node_tbl.find_opt e.enodes key with
  | Some n -> Node n
  | None ->
    let n = { id = e.enext_node; suf; parents } in
    e.enext_node <- e.enext_node + 1;
    Node_tbl.add e.enodes key n;
    Node n

(* --- Closure --------------------------------------------------------------- *)

exception Left_rec

(* Stable configurations of the closure of [configs].  The visited-set
   discipline mirrors the core engine: a snapshot per spine level, restored
   on pop, so completed nullable subderivations do not poison later
   expansions (see Sll.closure). *)
let closure e configs =
  let seen = Hashtbl.create 64 in
  let stable = ref [] in
  let rec go cfg vises =
    let key = (cfg.pred, stack_key cfg.stack) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      match cfg.stack with
      | Bottom_accept -> stable := cfg :: !stable
      | Bottom_nt x ->
        List.iter
          (fun (y, beta) ->
            go
              { cfg with stack = mk_node e beta [ Bottom_nt y ] }
              [ Int_set.empty ])
          (Analysis.callers e.eanl x);
        if Analysis.follow_end e.eanl x then
          go { cfg with stack = Bottom_accept } []
      | Node n -> (
        match n.suf with
        | [] ->
          (* Pop: resume at every parent. *)
          let tail = match vises with [] | [ _ ] -> [ Int_set.empty ] | _ :: vs -> vs in
          List.iter (fun p -> go { cfg with stack = p } tail) n.parents
        | T _ :: _ -> stable := cfg :: !stable
        | NT y :: rest ->
          let vis = match vises with v :: _ -> v | [] -> Int_set.empty in
          if Int_set.mem y vis then raise Left_rec
          else begin
            (* Skip empty residue frames (see Sll.closure), dropping the
               matching visited-set snapshot so snapshots stay parallel to
               stack levels. *)
            let tail = match vises with _ :: vs -> vs | [] -> [] in
            let parents, vises_below =
              if rest = [] then (n.parents, tail)
              else ([ mk_node e rest n.parents ], vises)
            in
            let vises' = Int_set.add y vis :: vises_below in
            List.iter
              (fun rhs -> go { cfg with stack = mk_node e rhs parents } vises')
              (Grammar.rhss_of e.eg y)
          end)
    end
  in
  match List.iter (fun c -> go c [ Int_set.empty ]) configs with
  | () -> Ok !stable
  | exception Left_rec -> Error ()

(* Merge stable configurations with equal (pred, frame): union their parent
   sets — the step that makes this a *graph*-structured stack. *)
let merge_stable e configs =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun cfg ->
      match cfg.stack with
      | Bottom_accept -> Hashtbl.replace tbl (cfg.pred, []) []
      | Bottom_nt _ -> assert false (* closure never leaves bottoms stable *)
      | Node n ->
        let key = (cfg.pred, n.suf) in
        let existing = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
        Hashtbl.replace tbl key (n.parents @ existing))
    configs;
  let merged =
    Hashtbl.fold
      (fun (pred, suf) parents acc ->
        let stack =
          if suf = [] && parents = [] then Bottom_accept
          else mk_node e suf parents
        in
        { pred; stack } :: acc)
      tbl []
  in
  List.sort
    (fun c1 c2 ->
      let c = Int.compare c1.pred c2.pred in
      if c <> 0 then c else Int.compare (stack_key c1.stack) (stack_key c2.stack))
    merged

let move configs a =
  List.filter_map
    (fun cfg ->
      match cfg.stack with
      | Node { suf = T a' :: _; _ } when a' = a -> Some cfg
      | _ -> None)
    configs

(* Advancing past the matched terminal needs the engine for interning. *)
let advance e configs =
  List.map
    (fun cfg ->
      match cfg.stack with
      | Node { suf = _ :: rest; parents; _ } ->
        { cfg with stack = mk_node e rest parents }
      | _ -> assert false)
    configs

(* --- The DFA over merged configuration sets ------------------------------- *)

let state_key configs =
  List.map (fun c -> (c.pred, stack_key c.stack)) configs

let compute_info configs =
  let preds = List.sort_uniq Int.compare (List.map (fun c -> c.pred) configs) in
  let verdict =
    match preds with [] -> -2 | [ p ] -> p | _ -> -1
  in
  let accepting =
    List.sort_uniq Int.compare
      (List.filter_map
         (fun c -> match c.stack with Bottom_accept -> Some c.pred | _ -> None)
         configs)
  in
  { configs; verdict; accepting }

let intern e configs =
  let key = state_key configs in
  match Hashtbl.find_opt e.estates key with
  | Some sid -> sid
  | None ->
    let sid = e.en_states in
    if sid = Array.length e.einfos then begin
      let bigger = Array.make (2 * (sid + 1)) { configs = []; verdict = -2; accepting = [] } in
      Array.blit e.einfos 0 bigger 0 sid;
      e.einfos <- bigger
    end;
    e.einfos.(sid) <- compute_info configs;
    e.epeak <- max e.epeak (List.length configs);
    e.en_states <- sid + 1;
    Hashtbl.add e.estates key sid;
    sid

type t = engine

let create g : engine =
  let anl = Analysis.make g in
  {
    eg = g;
    eanl = anl;
    en_terms = Grammar.num_terminals g;
    enodes = Node_tbl.create 256;
    enext_node = 0;
    estates = Hashtbl.create 64;
    einfos = Array.make 16 { configs = []; verdict = -2; accepting = [] };
    en_states = 0;
    etrans = Hashtbl.create 256;
    einits = Array.make (max 1 (Grammar.num_nonterminals g)) (-1);
    epeak = 0;
  }

let reset e =
  Node_tbl.reset e.enodes;
  e.enext_node <- 0;
  Hashtbl.reset e.estates;
  e.en_states <- 0;
  Hashtbl.reset e.etrans;
  Array.fill e.einits 0 (Array.length e.einits) (-1);
  e.epeak <- 0

let stats e = (e.enext_node, e.en_states, e.epeak)

let left_rec_error _e x =
  (* Attribute the error to the decision nonterminal, as the core engine's
     closure attributes it to the offending cycle member; verdict class is
     what the differential tests compare. *)
  Types.Error_pred (Types.Left_recursive x)

let predict e x tokens =
  let init () =
    if e.einits.(x) >= 0 then Ok e.einits.(x)
    else
      let init_configs =
        List.map
          (fun ix ->
            {
              pred = ix;
              stack = mk_node e (Grammar.prod e.eg ix).Grammar.rhs [ Bottom_nt x ];
            })
          (Grammar.prods_of e.eg x)
      in
      match closure e init_configs with
      | Error () -> Error ()
      | Ok stable ->
        let sid = intern e (merge_stable e stable) in
        e.einits.(x) <- sid;
        Ok sid
  in
  match init () with
  | Error () -> left_rec_error e x
  | Ok sid0 ->
    let rec walk sid tokens =
      let info = e.einfos.(sid) in
      if info.verdict = -2 then Types.Reject_pred
      else if info.verdict >= 0 then Types.Unique_pred info.verdict
      else
        match tokens with
        | [] -> (
          match info.accepting with
          | [] -> Types.Reject_pred
          | [ p ] -> Types.Unique_pred p
          | p :: _ -> Types.Ambig_pred p)
        | tok :: rest -> (
          let a = tok.Token.term in
          let key = (sid * e.en_terms) + a in
          match Hashtbl.find_opt e.etrans key with
          | Some sid' -> walk sid' rest
          | None -> (
            match closure e (advance e (move info.configs a)) with
            | Error () -> left_rec_error e x
            | Ok stable ->
              let sid' = intern e (merge_stable e stable) in
              Hashtbl.add e.etrans key sid';
              walk sid' rest))
    in
    walk sid0 tokens
