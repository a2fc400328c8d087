(* Static grammar analyses: one worklist fixed-point engine over the
   interned grammar.

   Each fact (a nonterminal becoming nullable, a terminal entering a FIRST
   or FOLLOW set, end-of-input following a nonterminal, ...) is enqueued
   once and pushed only along precomputed occurrence edges to the
   productions that can consume it.  Two things fall out of the
   single-discovery discipline:

   - every fact carries a justification recorded at the moment it was first
     derived, and every justification references only facts discovered
     strictly earlier — so witness extraction is a simple acyclic walk;
   - the engine is O(facts * occurrences) rather than O(passes * grammar).

   The computed facts are the classical NULLABLE / FIRST / FOLLOW lattice
   (Edelmann et al., "LL(1) Parsing with Derivatives and Zippers", give the
   inductive spec this engine is property-tested against), plus REACHABLE,
   PRODUCTIVE, and the per-nonterminal sync/anchor sets (FIRST ∪ FOLLOW,
   the Coco/R-style resynchronization vocabulary) that the recovery engine
   and the flat-table exporter consume.  Alongside them: the callers map,
   the frame interner and the shortest yields (see analysis.mli). *)

open Symbols

(* Why a terminal entered FOLLOW(x). *)
type follow_reason =
  | F_first of { prod : int; x_pos : int; src_pos : int }
      (* In production [prod], [x] at [x_pos] is followed (through a
         nullable gap) by the symbol at [src_pos], which contributes the
         terminal: directly if it is that terminal, via its FIRST set if it
         is a nonterminal. *)
  | F_follow of { prod : int; x_pos : int }
      (* In production [prod] the suffix after [x_pos] is nullable, so
         FOLLOW of the production's left-hand side flows into FOLLOW(x). *)

type t = {
  g : Grammar.t;
  occs : (int * int) list array;  (* nonterminal -> (prod, pos) occurrences *)
  nullable : bool array;
  null_why : int array;  (* justifying production, -1 when not nullable *)
  first : Bitset.t array;
  first_why : (int * int) array array;  (* (prod, pos); (-1, -1) if absent *)
  follow : Bitset.t array;
  follow_why : follow_reason option array array;
  follow_end : bool array;
  follow_end_why : (int * int) array;
      (* (prod, x_pos) inheritance step; (-1, -1) for the start symbol *)
  reachable : bool array;
  reach_why : (int * int) array;  (* (prod, pos); (-1, -1) for the start *)
  productive : bool array;
  prod_why : int array;  (* justifying production, -1 when unproductive *)
  sync : Bitset.t array;  (* FIRST ∪ FOLLOW, precomputed *)
  callers : (nonterminal * symbol list) list array;
  min_yield : terminal list array;
      (* shortest terminal yield per nonterminal; meaningful only where
         [productive] holds *)
  frames : Frames.t;
  callers_framed : (nonterminal * Frames.frame) list array;
      (* [callers] with each continuation pre-interned, so stable-return
         forks in the closure hot path never touch symbol lists *)
  ll1_cells : int list array;
      (* LL(1) candidates, [x * num_terminals + a] -> productions in
         grammar order *)
  ll1_eof : int list array;  (* the same for end of input, per nonterminal *)
}

(* --- Construction ------------------------------------------------------- *)

let occurrences g =
  let occs = Array.make (Grammar.num_nonterminals g) [] in
  Array.iter
    (fun (p : Grammar.production) ->
      List.iteri
        (fun pos -> function
          | T _ -> ()
          | NT y -> occs.(y) <- (p.ix, pos) :: occs.(y))
        p.rhs)
    (Grammar.prods g);
  Array.map List.rev occs

(* NULLABLE by counting: each production tracks how many of its right-hand
   side symbols are not yet known nullable; a terminal anywhere makes the
   production permanently non-nullable.  A nonterminal is enqueued exactly
   once, when its count first reaches zero. *)
let compute_nullable t =
  let g = t.g in
  let n_prods = Grammar.num_productions g in
  let remaining = Array.make n_prods 0 in
  let dead = Array.make n_prods false in
  let queue = Queue.create () in
  let mark x why =
    if not t.nullable.(x) then begin
      t.nullable.(x) <- true;
      t.null_why.(x) <- why;
      Queue.add x queue
    end
  in
  Array.iter
    (fun (p : Grammar.production) ->
      List.iter
        (function
          | T _ -> dead.(p.ix) <- true
          | NT _ -> remaining.(p.ix) <- remaining.(p.ix) + 1)
        p.rhs;
      if (not dead.(p.ix)) && remaining.(p.ix) = 0 then mark p.lhs p.ix)
    (Grammar.prods g);
  while not (Queue.is_empty queue) do
    let x = Queue.pop queue in
    List.iter
      (fun (ix, _) ->
        if not dead.(ix) then begin
          remaining.(ix) <- remaining.(ix) - 1;
          if remaining.(ix) = 0 then mark (Grammar.prod t.g ix).lhs ix
        end)
      t.occs.(x)
  done

(* Occurrences whose production prefix (the symbols strictly before the
   occurrence) is all nullable: exactly the edges along which FIRST facts
   propagate from the occurring nonterminal to the production's lhs. *)
let nullable_prefix_occs t x =
  List.filter
    (fun (ix, pos) ->
      let rec check j = function
        | [] -> true
        | _ :: _ when j >= pos -> true
        | T _ :: _ -> false
        | NT y :: rest -> t.nullable.(y) && check (j + 1) rest
      in
      check 0 (Grammar.prod t.g ix).rhs)
    t.occs.(x)

let compute_first t =
  let g = t.g in
  let queue = Queue.create () in
  let add x a why =
    if Bitset.add t.first.(x) a then begin
      t.first_why.(x).(a) <- why;
      Queue.add (x, a) queue
    end
  in
  (* Base facts: the first terminal behind each production's nullable
     prefix. *)
  Array.iter
    (fun (p : Grammar.production) ->
      let rec go j = function
        | [] -> ()
        | T a :: _ -> add p.lhs a (p.ix, j)
        | NT y :: rest -> if t.nullable.(y) then go (j + 1) rest
      in
      go 0 p.rhs)
    (Grammar.prods g);
  (* Propagation: a terminal entering FIRST(y) enters FIRST(lhs) for every
     occurrence of y behind a nullable prefix. *)
  let prop = Array.mapi (fun y _ -> nullable_prefix_occs t y) t.occs in
  while not (Queue.is_empty queue) do
    let y, a = Queue.pop queue in
    List.iter
      (fun (ix, pos) -> add (Grammar.prod g ix).lhs a (ix, pos))
      prop.(y)
  done

let compute_follow t =
  let g = t.g in
  let queue = Queue.create () in
  let add x a why =
    if Bitset.add t.follow.(x) a then begin
      t.follow_why.(x).(a) <- Some why;
      Queue.add (x, a) queue
    end
  in
  (* Inheritance edges lhs -> x (x occurs with a nullable suffix), shared by
     the FOLLOW and the end-of-input propagation. *)
  let inherit_edges = Array.make (Grammar.num_nonterminals g) [] in
  Array.iter
    (fun (p : Grammar.production) ->
      let rhs = Array.of_list p.rhs in
      let m = Array.length rhs in
      for pos = 0 to m - 1 do
        match rhs.(pos) with
        | T _ -> ()
        | NT x ->
          (* Seed from the suffix: FIRST of everything x can see to its
             right, through nullable gaps. *)
          let rec go j =
            if j >= m then
              inherit_edges.(p.lhs) <- (x, p.ix, pos) :: inherit_edges.(p.lhs)
            else
              match rhs.(j) with
              | T a -> add x a (F_first { prod = p.ix; x_pos = pos; src_pos = j })
              | NT y ->
                Bitset.iter
                  (fun a ->
                    add x a (F_first { prod = p.ix; x_pos = pos; src_pos = j }))
                  t.first.(y);
                if t.nullable.(y) then go (j + 1)
          in
          go (pos + 1)
      done)
    (Grammar.prods g);
  let inherit_edges = Array.map List.rev inherit_edges in
  (* FOLLOW propagation along the inheritance edges. *)
  while not (Queue.is_empty queue) do
    let y, a = Queue.pop queue in
    List.iter
      (fun (x, ix, pos) -> add x a (F_follow { prod = ix; x_pos = pos }))
      inherit_edges.(y)
  done;
  (* End-of-input flows along exactly the same edges, from the start
     symbol: x may end the input iff the start symbol is x, or some
     y -> α x β with β nullable has y ending it. *)
  let end_queue = Queue.create () in
  let mark_end x why =
    if not t.follow_end.(x) then begin
      t.follow_end.(x) <- true;
      t.follow_end_why.(x) <- why;
      Queue.add x end_queue
    end
  in
  mark_end (Grammar.start g) (-1, -1);
  while not (Queue.is_empty end_queue) do
    let y = Queue.pop end_queue in
    List.iter (fun (x, ix, pos) -> mark_end x (ix, pos)) inherit_edges.(y)
  done

let compute_reachable t =
  let g = t.g in
  let queue = Queue.create () in
  let mark x why =
    if not t.reachable.(x) then begin
      t.reachable.(x) <- true;
      t.reach_why.(x) <- why;
      Queue.add x queue
    end
  in
  mark (Grammar.start g) (-1, -1);
  while not (Queue.is_empty queue) do
    let y = Queue.pop queue in
    List.iter
      (fun ix ->
        List.iteri
          (fun pos -> function
            | T _ -> ()
            | NT x -> mark x (ix, pos))
          (Grammar.prod g ix).rhs)
      (Grammar.prods_of g y)
  done

(* PRODUCTIVE by counting, like NULLABLE but with terminals trivially
   satisfied. *)
let compute_productive t =
  let g = t.g in
  let n_prods = Grammar.num_productions g in
  let remaining = Array.make n_prods 0 in
  let queue = Queue.create () in
  let mark x why =
    if not t.productive.(x) then begin
      t.productive.(x) <- true;
      t.prod_why.(x) <- why;
      Queue.add x queue
    end
  in
  Array.iter
    (fun (p : Grammar.production) ->
      List.iter
        (function T _ -> () | NT _ -> remaining.(p.ix) <- remaining.(p.ix) + 1)
        p.rhs;
      if remaining.(p.ix) = 0 then mark p.lhs p.ix)
    (Grammar.prods g);
  while not (Queue.is_empty queue) do
    let x = Queue.pop queue in
    List.iter
      (fun (ix, _) ->
        remaining.(ix) <- remaining.(ix) - 1;
        if remaining.(ix) = 0 then mark (Grammar.prod g ix).lhs ix)
      t.occs.(x)
  done

(* Shortest terminal yield of each productive nonterminal, as an actual word.
   A Bellman-Ford-style relaxation: an entry is only ever replaced by a
   strictly shorter word, so lengths descend and the iteration terminates.
   Ties are broken by keeping the incumbent, which makes the result
   deterministic in production order. *)
let compute_min_yield g productive =
  let n = Grammar.num_nonterminals g in
  let yield : terminal list option array = Array.make n None in
  let len = function None -> max_int | Some w -> List.length w in
  let sym_yield = function T a -> Some [ a ] | NT x -> yield.(x) in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun p ->
        let parts = List.map sym_yield p.Grammar.rhs in
        if List.for_all Option.is_some parts then begin
          let w = List.concat_map Option.get parts in
          if List.length w < len yield.(p.lhs) then begin
            yield.(p.lhs) <- Some w;
            changed := true
          end
        end)
      (Grammar.prods g)
  done;
  Array.mapi
    (fun x w ->
      match w with
      | Some w -> w
      | None ->
        assert (not productive.(x));
        [])
    yield

(* The callers of [x]: each occurrence's (lhs, suffix after it), in
   occurrence order, duplicates collapsed.  Suffixes share the rhs tails. *)
let compute_callers g occs =
  let entry (ix, pos) =
    let p = Grammar.prod g ix in
    let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
    (p.lhs, drop (pos + 1) p.rhs)
  in
  let same (y, beta) (y', beta') = y = y' && compare_symbols beta beta' = 0 in
  Array.map
    (fun occs ->
      List.rev
        (List.fold_left
           (fun acc occ ->
             let e = entry occ in
             if List.exists (same e) acc then acc else e :: acc)
           [] occs))
    occs

let nullable_seq t syms =
  List.for_all (function T _ -> false | NT x -> t.nullable.(x)) syms

let first_seq t syms =
  let acc = Bitset.create (Grammar.num_terminals t.g) in
  let rec go = function
    | [] -> ()
    | T a :: _ -> ignore (Bitset.add acc a)
    | NT x :: rest ->
      ignore (Bitset.union_into ~into:acc t.first.(x));
      if t.nullable.(x) then go rest
  in
  go syms;
  acc

(* The LL(1) table's candidate cells: production [p] of [x] enters the
   cell of every terminal in PREDICT(p) = FIRST(rhs) ∪ (FOLLOW(x) if rhs is
   nullable), and the end-of-input cell when rhs is nullable and
   [follow_end x].  Each production enters a cell at most once: a nullable
   right-hand side whose FIRST and FOLLOW(lhs) share a terminal is one
   candidate there, not a conflict with itself.  Productions are visited
   last to first so consing leaves every cell in grammar order. *)
let compute_ll1_cells t =
  let n_terms = Grammar.num_terminals t.g in
  let cells = Array.make (Grammar.num_nonterminals t.g * n_terms) [] in
  let eof = Array.make (Grammar.num_nonterminals t.g) [] in
  let prods = Grammar.prods t.g in
  for ix = Array.length prods - 1 downto 0 do
    let p = prods.(ix) in
    let x = p.Grammar.lhs in
    let add a = cells.((x * n_terms) + a) <- ix :: cells.((x * n_terms) + a) in
    let la = first_seq t p.rhs in
    if nullable_seq t p.rhs then begin
      ignore (Bitset.union_into ~into:la t.follow.(x));
      if t.follow_end.(x) then eof.(x) <- ix :: eof.(x)
    end;
    Bitset.iter add la
  done;
  (cells, eof)

let make g =
  let n_nts = Grammar.num_nonterminals g in
  let n_terms = Grammar.num_terminals g in
  let occs = occurrences g in
  let callers = compute_callers g occs in
  let frames = Frames.make g in
  let t =
    {
      g;
      occs;
      nullable = Array.make n_nts false;
      null_why = Array.make n_nts (-1);
      first = Array.init n_nts (fun _ -> Bitset.create n_terms);
      first_why = Array.init n_nts (fun _ -> Array.make n_terms (-1, -1));
      follow = Array.init n_nts (fun _ -> Bitset.create n_terms);
      follow_why = Array.init n_nts (fun _ -> Array.make n_terms None);
      follow_end = Array.make n_nts false;
      follow_end_why = Array.make n_nts (-1, -1);
      reachable = Array.make n_nts false;
      reach_why = Array.make n_nts (-1, -1);
      productive = Array.make n_nts false;
      prod_why = Array.make n_nts (-1);
      sync = [||];
      callers;
      min_yield = [||];
      frames;
      callers_framed =
        Array.map
          (List.map (fun (y, beta) -> (y, Frames.frame_of_syms frames beta)))
          callers;
      ll1_cells = [||];
      ll1_eof = [||];
    }
  in
  compute_nullable t;
  compute_first t;
  compute_follow t;
  compute_reachable t;
  compute_productive t;
  let ll1_cells, ll1_eof = compute_ll1_cells t in
  {
    t with
    ll1_cells;
    ll1_eof;
    sync = Array.init n_nts (fun x -> Bitset.union t.first.(x) t.follow.(x));
    min_yield = compute_min_yield g t.productive;
  }

(* --- Accessors ---------------------------------------------------------- *)

let grammar t = t.g
let nullable t x = t.nullable.(x)
let first t x = t.first.(x)
let follow t x = t.follow.(x)
let follow_end t x = t.follow_end.(x)
let sync t x = t.sync.(x)
let reachable t x = t.reachable.(x)
let productive t x = t.productive.(x)
let callers t x = t.callers.(x)
let callers_framed t x = t.callers_framed.(x)
let frames t = t.frames
let ll1_cells t = (t.ll1_cells, t.ll1_eof)

let min_yield t x = if t.productive.(x) then Some t.min_yield.(x) else None

let min_yield_seq t syms =
  let rec go acc = function
    | [] -> Some (List.concat (List.rev acc))
    | T a :: rest -> go ([ a ] :: acc) rest
    | NT x :: rest ->
      if t.productive.(x) then go (t.min_yield.(x) :: acc) rest else None
  in
  go [] syms

(* --- Witness extraction -------------------------------------------------

   Every justification recorded by the worklist references only facts
   discovered strictly earlier, so each walk below strictly descends in
   discovery order and terminates. *)

(* Render production [ix] with a bullet in front of the symbol at [pos]
   (the symbol the justification points at). *)
let marked_production g ix pos =
  let p = Grammar.prod g ix in
  let syms =
    List.mapi
      (fun j s ->
        (if j = pos then "\xe2\x80\xa2" ^ Names.symbol g s
         else Names.symbol g s))
      p.rhs
  in
  Printf.sprintf "%s -> %s"
    (Names.nonterminal g p.lhs)
    (match syms with [] -> "\xce\xb5" | _ -> String.concat " " syms)

(* Productions used to derive epsilon from [x], one per distinct
   nonterminal of the derivation tree. *)
let nullable_witness t x =
  if not t.nullable.(x) then None
  else begin
    let seen = Hashtbl.create 8 in
    let acc = ref [] in
    let rec go x =
      if not (Hashtbl.mem seen x) then begin
        Hashtbl.add seen x ();
        let ix = t.null_why.(x) in
        acc := Names.production t.g ix :: !acc;
        List.iter
          (function T _ -> assert false | NT y -> go y)
          (Grammar.prod t.g ix).rhs
      end
    in
    go x;
    Some (List.rev !acc)
  end

(* The production chain deriving a word of [x] that starts with [a]: each
   step is a production with the contributing symbol marked; the walk
   descends while that symbol is a nonterminal. *)
let first_witness t x a =
  if a < 0 || a >= Grammar.num_terminals t.g || not (Bitset.mem t.first.(x) a)
  then None
  else begin
    let rec go x acc =
      let ix, pos = t.first_why.(x).(a) in
      let acc = marked_production t.g ix pos :: acc in
      match List.nth (Grammar.prod t.g ix).rhs pos with
      | T _ -> List.rev acc
      | NT y -> go y acc
    in
    Some (go x [])
  end

(* The inheritance chain justifying [a] ∈ FOLLOW([x]): zero or more
   FOLLOW-of-lhs steps, then the occurrence whose right context contributes
   [a], then (if that contributor is a nonterminal) its FIRST chain. *)
let follow_witness t x a =
  if a < 0 || a >= Grammar.num_terminals t.g || not (Bitset.mem t.follow.(x) a)
  then None
  else begin
    let rec go x acc =
      match t.follow_why.(x).(a) with
      | None -> List.rev acc  (* unreachable: facts always carry reasons *)
      | Some (F_first { prod; x_pos = _; src_pos }) -> (
        let acc = marked_production t.g prod src_pos :: acc in
        match List.nth (Grammar.prod t.g prod).rhs src_pos with
        | T _ -> List.rev acc
        | NT y ->
          List.rev_append acc (Option.value ~default:[] (first_witness t y a)))
      | Some (F_follow { prod; x_pos }) ->
        go (Grammar.prod t.g prod).lhs (marked_production t.g prod x_pos :: acc)
    in
    Some (go x [])
  end

(* The raw (production, position) steps from the start symbol down to an
   occurrence of [x], root first.  This is what the coverage generator
   replays to build a sentential context around a target; the rendered
   [reachable_witness] below is the same chain for humans. *)
let reachable_chain t x =
  if x < 0 || x >= Array.length t.reachable || not t.reachable.(x) then None
  else begin
    let rec go x acc =
      match t.reach_why.(x) with
      | -1, -1 -> acc
      | ix, pos -> go (Grammar.prod t.g ix).lhs ((ix, pos) :: acc)
    in
    Some (go x [])
  end

let reachable_witness t x =
  Option.map
    (List.map (fun (ix, pos) -> marked_production t.g ix pos))
    (reachable_chain t x)

(* Productions used to derive some terminal word from [x], one per distinct
   nonterminal (the PRODUCTIVE analogue of [nullable_witness]). *)
let productive_witness t x =
  if not t.productive.(x) then None
  else begin
    let seen = Hashtbl.create 8 in
    let acc = ref [] in
    let rec go x =
      if not (Hashtbl.mem seen x) then begin
        Hashtbl.add seen x ();
        let ix = t.prod_why.(x) in
        acc := Names.production t.g ix :: !acc;
        List.iter
          (function T _ -> () | NT y -> go y)
          (Grammar.prod t.g ix).rhs
      end
    in
    go x;
    Some (List.rev !acc)
  end

(* A terminal word of [x] beginning with [a], replayed from the FIRST
   justification chain: nullable prefixes derive ε, the contributing symbol
   recurses, and everything after it takes its shortest yield. *)
let first_word t x a =
  if a < 0 || a >= Grammar.num_terminals t.g || not (Bitset.mem t.first.(x) a)
  then None
  else begin
    let ( let* ) = Option.bind in
    let rec go x =
      let ix, pos = t.first_why.(x).(a) in
      let rhs = (Grammar.prod t.g ix).rhs in
      let suffix = List.filteri (fun j _ -> j > pos) rhs in
      (* The justification guarantees the prefix before [pos] is nullable
         (it derives ε in the witness word); the suffix still has to finish
         the derivation, which is impossible if it is unproductive. *)
      let* tail = min_yield_seq t suffix in
      match List.nth rhs pos with
      | T a' -> Some (a' :: tail)
      | NT y ->
        let* front = go y in
        Some (front @ tail)
    in
    go x
  end
