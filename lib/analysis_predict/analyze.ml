open Costar_grammar
open Costar_grammar.Symbols
module Cache = Costar_core.Cache
module Config = Costar_core.Config
module Sll = Costar_core.Sll
module Types = Costar_core.Types
module Count = Costar_earley.Count

type lookahead =
  | Sll_k of int
  | Beyond of int
  | Cyclic
  | Ambiguous

type conflict = {
  alts : int * int;
  witness : terminal list;
  at_eof : bool;
  ambiguous_word : terminal list option;
}

type decision = {
  nt : nonterminal;
  n_alts : int;
  lookahead : lookahead;
  conflicts : conflict list;
  uses_stable_return : bool;
  states : int;
  truncated : bool;
  error : Types.error option;
}

type t = {
  g : Grammar.t;
  k_bound : int;
  decisions : decision list;
  cache : Cache.t;
}

let default_k = 8
let default_max_states = 4000

(* Per-state configuration bound: dot (the worst of the real grammars)
   peaks at ~4.4k configs per state, while pathologically ambiguous
   grammars blow straight past this on the way to millions. *)
let default_max_configs = 8_000

let ll_fallback_possible d = List.exists (fun c -> c.at_eof) d.conflicts

let lookahead_to_string = function
  | Sll_k k -> Printf.sprintf "SLL(%d)" k
  | Beyond k -> Printf.sprintf "not SLL(k) for k <= %d" k
  | Cyclic -> "unbounded (undecided DFA cycle)"
  | Ambiguous -> "ambiguous"

let witness_string = Names.terminals

let tokens_of_terms g w =
  List.map (fun a -> Token.make a (Grammar.terminal_name g a)) w

(* Groups of configurations that share (frames, context): such configurations
   make identical moves forever, so once two or more predictions share one
   group no amount of further lookahead can separate them.  The group with
   empty frames in accepting context is the end-of-input collision that makes
   the runtime's SLL verdict [Ambig_pred]. *)
let merged_groups configs =
  let rec add groups (cfg : Config.sll) =
    match groups with
    | [] -> [ (cfg.s_frames, cfg.s_ctx, [ cfg.s_pred ]) ]
    | (f, c, preds) :: rest
      when f = cfg.s_frames && Config.compare_sctx c cfg.s_ctx = 0 ->
      (f, c, preds @ [ cfg.s_pred ]) :: rest
    | gp :: rest -> gp :: add rest cfg
  in
  List.fold_left add [] configs
  |> List.filter_map (fun (f, c, preds) ->
         let preds = List.sort_uniq Int.compare preds in
         if List.length preds >= 2 then Some (f, c, preds) else None)

(* Unordered pairs of an ascending list, smaller component first. *)
let rec pairs = function
  | [] -> []
  | p :: rest -> List.map (fun q -> (p, q)) rest @ pairs rest

type conflict_acc = {
  mutable c_witness : terminal list;
  mutable c_at_eof : bool;
  mutable c_amb : terminal list option;
}

exception Abort of Types.error

let analyze_decision g anl ~k ~max_states ~max_configs ~oracle cache x =
  let n_alts = List.length (Grammar.prods_of g x) in
  match Sll.closure_cached g anl cache (Sll.init_configs g anl x) with
  | Error e ->
    {
      nt = x;
      n_alts;
      lookahead = Beyond 0;
      conflicts = [];
      uses_stable_return = false;
      states = 0;
      truncated = false;
      error = Some e;
    }
  | Ok (configs0, forked0) ->
    let sid0 = Cache.intern cache configs0 in
    if Cache.find_init cache x = None then Cache.add_init cache x sid0;
    let forked = ref forked0 in
    (* Per-decision BFS bookkeeping (the DFA cache itself is global). *)
    let depth_of = Hashtbl.create 64 in
    let parent = Hashtbl.create 64 in
    let pending_succs = Hashtbl.create 64 in
    let truncated = ref false in
    let at_bound = ref false in
    let max_pending_depth = ref (-1) in
    let conflicts : (int * int, conflict_acc) Hashtbl.t = Hashtbl.create 8 in
    let path_to sid =
      let rec go sid acc =
        match Hashtbl.find_opt parent sid with
        | None -> acc
        | Some (a, psid) -> go psid (a :: acc)
      in
      go sid []
    in
    let note pair ~witness ~at_eof ~amb =
      match Hashtbl.find_opt conflicts pair with
      | None ->
        Hashtbl.add conflicts pair
          { c_witness = witness; c_at_eof = at_eof; c_amb = amb }
      | Some acc ->
        (* BFS visits states in depth order, so the recorded witness is
           already a shortest one. *)
        acc.c_at_eof <- acc.c_at_eof || at_eof;
        if acc.c_amb = None then acc.c_amb <- amb
    in
    let confirm_ambiguous word =
      oracle && Count.count_trees_sym g x (tokens_of_terms g word) >= 2
    in
    let queue = Queue.create () in
    Hashtbl.replace depth_of sid0 0;
    Queue.add sid0 queue;
    let n_states = ref 1 in
    let err = ref None in
    (try
       while not (Queue.is_empty queue) do
         let sid = Queue.pop queue in
         let d = Hashtbl.find depth_of sid in
         let info = Cache.info cache sid in
         match info.Cache.verdict with
         | Cache.V_empty | Cache.V_all_pred _ -> ()
         | Cache.V_pending
           when List.length info.Cache.configs > max_configs ->
           (* Ambiguity can make the simulated-stack set grow exponentially
              with depth (each config is a distinct derivation prefix).
              Mining such a state for conflict pairs — let alone expanding
              it — costs more than the whole rest of the analysis, so give
              up on this branch exactly like [max_states] does. *)
           truncated := true
         | Cache.V_pending ->
           if d > !max_pending_depth then max_pending_depth := d;
           let w = path_to sid in
           List.iter
             (fun (frames, ctx, preds) ->
               let at_eof =
                 Frames.spine_is_nil frames && ctx = Config.Ctx_accept
               in
               let amb =
                 (* Candidate ambiguous sentence: the path to this state plus
                    a shortest completion of the merged group's remaining
                    frames.  Only kept if the Earley oracle counts >= 2
                    derivations of it from the decision nonterminal (the
                    completion may contain caller-continuation tokens from a
                    stable-return fork, in which case it is not a sentence of
                    [x] and confirmation correctly fails). *)
                 let completion =
                   if at_eof then Some []
                   else
                     Analysis.min_yield_seq anl
                       (List.concat
                          (Frames.frames_of_spine (Analysis.frames anl) frames))
                 in
                 match completion with
                 | None -> None
                 | Some suffix ->
                   let word = w @ suffix in
                   if confirm_ambiguous word then Some word else None
               in
               List.iter
                 (fun pr -> note pr ~witness:w ~at_eof ~amb)
                 (pairs preds))
             (merged_groups info.Cache.configs);
           if d >= k then begin
             at_bound := true;
             (* Alternatives still alive together at the bound: report the
                pairs so the "not SLL(k)" verdict carries a witness. *)
             List.iter
               (fun pr -> note pr ~witness:w ~at_eof:false ~amb:None)
               (pairs (Config.preds_of_sll info.Cache.configs))
           end
           else if !n_states > max_states then truncated := true
           else begin
             let moved_to = ref [] in
             for a = 0 to Grammar.num_terminals g - 1 do
               match
                 Sll.closure_cached g anl cache
                   (Sll.move anl info.Cache.configs a)
               with
               | Error e -> raise (Abort e)
               | Ok (configs', f) ->
                 let sid' = Cache.intern cache configs' in
                 (* [add_trans] is idempotent, so no find-before-add dance. *)
                 Cache.add_trans cache sid a sid';
                 forked := !forked || f;
                 let pending =
                   match (Cache.info cache sid').Cache.verdict with
                   | Cache.V_pending -> true
                   | Cache.V_empty | Cache.V_all_pred _ -> false
                 in
                 if pending then moved_to := sid' :: !moved_to;
                 if not (Hashtbl.mem depth_of sid') then begin
                   Hashtbl.replace depth_of sid' (d + 1);
                   Hashtbl.replace parent sid' (a, sid);
                   incr n_states;
                   if pending then Queue.add sid' queue
                 end
             done;
             Hashtbl.replace pending_succs sid !moved_to
           end
       done
     with Abort e -> err := Some e);
    (* A cycle among fully expanded pending states: some input drives the
       DFA forever without deciding, so no finite lookahead suffices. *)
    let cycle_at =
      let color = Hashtbl.create 16 in
      let rec visit sid =
        match Hashtbl.find_opt color sid with
        | Some `Gray -> Some sid
        | Some `Black -> None
        | None ->
          Hashtbl.replace color sid `Gray;
          let succs =
            Option.value ~default:[] (Hashtbl.find_opt pending_succs sid)
          in
          let r =
            List.fold_left
              (fun found s ->
                match found with
                | Some _ -> found
                | None ->
                  if Hashtbl.mem pending_succs s then visit s else None)
              None succs
          in
          Hashtbl.replace color sid `Black;
          r
      in
      if Hashtbl.mem pending_succs sid0 then visit sid0 else None
    in
    (match cycle_at with
    | None -> ()
    | Some sid ->
      (* Make sure the unbounded verdict carries a witness pair. *)
      let w = path_to sid in
      List.iter
        (fun pr -> note pr ~witness:w ~at_eof:false ~amb:None)
        (pairs (Config.preds_of_sll (Cache.info cache sid).Cache.configs)));
    let conflicts =
      Hashtbl.fold
        (fun pair acc l ->
          {
            alts = pair;
            witness = acc.c_witness;
            at_eof = acc.c_at_eof;
            ambiguous_word = acc.c_amb;
          }
          :: l)
        conflicts []
      |> List.sort (fun c1 c2 -> compare c1.alts c2.alts)
    in
    let lookahead =
      if List.exists (fun c -> c.ambiguous_word <> None) conflicts then
        Ambiguous
      else if cycle_at <> None then Cyclic
      else if !at_bound || !truncated then Beyond k
      else Sll_k (1 + !max_pending_depth)
    in
    {
      nt = x;
      n_alts;
      lookahead;
      conflicts;
      uses_stable_return = !forked;
      states = !n_states;
      truncated = !truncated;
      error = !err;
    }

let analyze ?(k = default_k) ?(max_states = default_max_states)
    ?(max_configs = default_max_configs) ?(oracle = true) ?cache ?analysis g =
  (* A supplied cache is bound to the analysis it was created with (its
     frame interner defines the configuration representation), so reuse its
     analysis rather than building a fresh, incompatible one. *)
  let anl =
    match analysis, cache with
    | Some a, _ -> a
    | None, Some c -> Cache.analysis c
    | None, None -> Analysis.make g
  in
  let cache = match cache with Some c -> c | None -> Cache.create anl in
  let decisions = ref [] in
  for x = 0 to Grammar.num_nonterminals g - 1 do
    if List.length (Grammar.prods_of g x) >= 2 then
      decisions :=
        analyze_decision g anl ~k ~max_states ~max_configs ~oracle cache x
        :: !decisions
  done;
  { g; k_bound = k; decisions = List.rev !decisions; cache }

let decision_for t x = List.find_opt (fun d -> d.nt = x) t.decisions
