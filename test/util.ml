(* Shared test helpers: random grammar and word generation for the
   property-based suites. *)

open Costar_grammar

let nt_names = [| "S"; "A"; "B"; "C" |]
let term_names = [| "a"; "b"; "c" |]

(* A random grammar over up to 4 nonterminals and 3 terminals.  Left
   recursion is allowed; properties dispatch on the static checker. *)
let gen_grammar : Grammar.t QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 1 4 >>= fun n_nts ->
  int_range 1 3 >>= fun n_terms ->
  let gen_sym =
    int_range 0 (n_nts + n_terms - 1) >|= fun i ->
    if i < n_terms then Grammar.t term_names.(i)
    else Grammar.n nt_names.(i - n_terms)
  in
  let gen_alt = int_range 0 3 >>= fun len -> list_repeat len gen_sym in
  let gen_alts = int_range 1 3 >>= fun k -> list_repeat k gen_alt in
  let rec gen_rules i acc =
    if i = n_nts then return (List.rev acc)
    else
      gen_alts >>= fun alts -> gen_rules (i + 1) ((nt_names.(i), alts) :: acc)
  in
  gen_rules 0 [] >|= fun rules ->
  Grammar.define ~extra_terminals:(Array.to_list term_names) ~start:"S" rules

(* A random word over the grammar's terminals, as terminal names. *)
let gen_random_word g : string list QCheck.Gen.t =
  let open QCheck.Gen in
  let n_terms = Grammar.num_terminals g in
  int_range 0 10 >>= fun len ->
  list_repeat len (int_range 0 (n_terms - 1) >|= Grammar.terminal_name g)

(* Attempt to sample a valid sentence of [g] by random leftmost expansion
   with fuel; returns None when fuel runs out (e.g. non-productive
   grammars). *)
let random_sentence g (rand : Random.State.t) : string list option =
  let module S = Symbols in
  let fuel = ref 60 in
  let rec go acc syms =
    if List.length acc > 12 then None
    else
      match syms with
      | [] -> Some (List.rev acc)
      | S.T a :: rest -> go (Grammar.terminal_name g a :: acc) rest
      | S.NT x :: rest -> (
        decr fuel;
        if !fuel <= 0 then None
        else
          match Grammar.prods_of g x with
          | [] -> None
          | prods ->
            let pick =
              if !fuel < 20 then
                (* Low fuel: bias towards the alternative with the fewest
                   nonterminals to steer toward termination. *)
                let weight ix =
                  List.length
                    (List.filter
                       (function S.NT _ -> true | S.T _ -> false)
                       (Grammar.prod g ix).Grammar.rhs)
                in
                List.fold_left
                  (fun best ix -> if weight ix < weight best then ix else best)
                  (List.hd prods) prods
              else List.nth prods (Random.State.int rand (List.length prods))
            in
            go acc ((Grammar.prod g pick).Grammar.rhs @ rest))
  in
  go [] [ S.NT (Grammar.start g) ]

(* A word that is valid with probability ~1/2 (when the grammar permits):
   either a sampled sentence or a uniformly random word. *)
let gen_word g : string list QCheck.Gen.t =
  let open QCheck.Gen in
  bool >>= fun use_sentence ->
  if use_sentence then fun st ->
    match random_sentence g st with
    | Some w -> w
    | None -> generate1 ~rand:st (gen_random_word g)
  else gen_random_word g

let print_case (g, w) =
  Fmt.str "@[<v>%a@,word: %s@]" Grammar.pp g (String.concat " " w)

let arb_grammar_word : (Grammar.t * string list) QCheck.arbitrary =
  let gen =
    let open QCheck.Gen in
    gen_grammar >>= fun g ->
    gen_word g >|= fun w -> (g, w)
  in
  QCheck.make ~print:print_case gen

(* Result equality: the same verdict with [Tree.equal] trees.  Reject
   messages are compared only under [~messages:true].  Results are never
   compared with polymorphic equality: a tree handle also carries its
   event buffer and token source, which are not part of the tree. *)
let same_result ?(messages = false) r1 r2 =
  let module P = Costar_core.Parser in
  match r1, r2 with
  | P.Unique t1, P.Unique t2 | P.Ambig t1, P.Ambig t2 -> Tree.equal t1 t2
  | P.Reject m1, P.Reject m2 -> (not messages) || String.equal m1 m2
  | P.Error e1, P.Error e2 -> e1 = e2
  | _ -> false

(* A token-list run through a prepared parser (the list form of
   [Parser.run_word]). *)
let run ?cache ?inspect p toks =
  Costar_core.Parser.run_word ?cache ?inspect p (Word.of_tokens toks)

(* The paper's machine bookkeeping (§3.2–3.3), kept on the side by its own
   rules, to check the machine's derived forms against.  The machine
   stores neither: a frame's processed symbols are the roots of its
   partial trees ([Machine.processed]) and the visited set is read off the
   frames' push positions ([Machine.visited]).  Here they are maintained
   as the paper does — a push adds its nonterminal to [visited] and opens
   an empty symbol list; a consume appends the terminal and empties
   [visited]; a return appends the nonterminal to the caller and removes
   it from [visited] — extended with the recovery engine's surgery:
   inserting or dropping the head symbol appends it, skipping input
   empties [visited], and popping a frame is a return.  [observe] is an
   inspect hook: from the second state on, it infers which transition led
   to each state, updates the shadow, and records the first disagreement. *)
module Shadow = struct
  open Costar_grammar.Symbols
  module M = Costar_core.Machine

  type frame = {
    syms : symbol list;  (** processed symbols, most recent first *)
    trees : int;  (** partial trees, including skipped-input markers *)
  }

  type t = {
    mutable prev : (M.ctx * M.state) option;
    mutable frames : frame list;  (** aligned with [top :: frames] *)
    mutable visited : Int_set.t;
    mutable guard : nonterminal option;
        (** the nonterminal the paper's guard rejects at the last state *)
    mutable error : string option;
  }

  let create () =
    {
      prev = None;
      frames = [ { syms = []; trees = 0 } ];
      visited = Int_set.empty;
      guard = None;
      error = None;
    }

  let fail t fmt =
    Printf.ksprintf (fun msg -> if t.error = None then t.error <- Some msg) fmt

  let transition t ctx (s0 : M.state) (s1 : M.state) =
    let h0 = M.height s0 and h1 = M.height s1 in
    if t.guard <> None then fail t "a push passed the visited guard";
    if h1 = h0 + 1 then (
      match s1.M.top with
      | M.Frame { label = x; _ } ->
        t.frames <- { syms = []; trees = 0 } :: t.frames;
        t.visited <- Int_set.add x t.visited
      | M.Bottom -> fail t "pushed an unlabeled frame")
    else if h1 > h0 then fail t "height grew by %d" (h1 - h0)
    else begin
      (* Pops: machine returns, or recovery closing frames. *)
      let rec pop d labels shadow =
        if d = 0 then shadow
        else
          match labels, shadow with
          | Some x :: fs', _ :: caller :: rest ->
            t.visited <- Int_set.remove x t.visited;
            pop (d - 1) fs'
              ({ syms = NT x :: caller.syms; trees = caller.trees + 1 } :: rest)
          | _ ->
            fail t "cannot pop";
            shadow
      in
      t.frames <- pop (h0 - h1) (M.labels s0) t.frames;
      (* Consuming or skipping input empties the visited set. *)
      if s1.M.pos > s0.M.pos then t.visited <- Int_set.empty;
      match t.frames with
      | top :: rest ->
        let fresh = List.filteri (fun i _ -> i >= top.trees) (List.hd (M.trees ctx s1)) in
        (* With no pops, the one new symbol is the head of the old top
           suffix: a consume, an inserted terminal or a dropped symbol. *)
        let head =
          match s0.M.suf with s :: _ when h1 = h0 -> Some s | _ -> None
        in
        let syms =
          List.fold_left
            (fun syms v ->
              match Tree.view v, head with
              | Tree.Error (None, _), _ -> syms
              | (Tree.Leaf _ | Tree.Error (Some _, [])), Some s -> s :: syms
              | _ ->
                fail t "unexpected new tree";
                syms)
            top.syms fresh
        in
        t.frames <- { syms; trees = top.trees + List.length fresh } :: rest
      | [] -> fail t "empty shadow stack"
    end

  let show set = String.concat "," (List.map string_of_int (Int_set.elements set))

  let compare_state t ctx (s : M.state) =
    let fs = M.processed ctx s in
    if List.length fs <> List.length t.frames then fail t "shadow height differs"
    else
      List.iteri
        (fun i (syms, sh) ->
          if not (List.equal equal_symbol syms sh.syms) then
            fail t "processed symbols differ at frame %d" i)
        (List.combine fs t.frames);
    if not (Int_set.equal (M.visited s) t.visited) then
      fail t "visited {%s} <> paper's {%s}" (show (M.visited s)) (show t.visited);
    t.guard <-
      (match s.M.suf with
      | NT x :: _ when Int_set.mem x t.visited -> Some x
      | _ -> None)

  let observe t ctx (s : M.state) =
    (match t.prev with Some (_, s0) -> transition t ctx s0 s | None -> ());
    compare_state t ctx s;
    t.prev <- Some (ctx, s)

  (* The run's left-recursion verdict must be the paper guard's: when the
     guard rejects the last state's push, the run ends in that error; when
     it does not, a [Left_recursive x] can only be prediction's own
     nullable-cycle detection (through [x]) at the last state's decision. *)
  let check_error t (env : M.env) (e : Costar_core.Types.error option) =
    let module Ty = Costar_core.Types in
    let predicted_error ((ctx : M.ctx), (st : M.state)) x =
      let below (st : M.state) () = List.tl st.M.suf :: List.tl (M.conts st) in
      match st.M.suf with
      | NT decision :: _ -> (
        match
          Costar_core.Predict.adaptive_predict env.M.g
            (Costar_core.Cache.analysis ctx.M.cache) ctx.M.cache decision
            ~conts:below st () ctx.M.word st.M.pos
        with
        | Ty.Error_pred (Ty.Left_recursive y), _ -> y = x
        | _ -> false)
      | _ -> false
    in
    (match e, t.guard, t.prev with
    | Some (Ty.Left_recursive x), Some y, _ when x = y -> ()
    | Some (Ty.Left_recursive x), None, Some st when predicted_error st x -> ()
    | (None | Some (Ty.Invalid_state _)), None, _ -> ()
    | _ -> fail t "left-recursion verdict differs from the paper's guard");
    t.error
end

(* The machine loop three ways from the initial state: [Machine.step]
   iterated here, [Machine.multistep] with an [inspect] hook (which
   iterates [step] itself), and the unboxed [Machine.multistep], which
   fuses ε-productions — in that order, each in its own context over the
   one cache, so the unboxed run is the one that reads a warmed first-token
   table.  Each stop is rendered with everything the three must agree on:
   the stop kind, the final or rejecting state (position, event count,
   height, suffix stack, uniqueness flag), the failure, and a digest of
   the event buffer's bytes. *)
module Loops = struct
  module M = Costar_core.Machine

  let sym = function
    | Symbols.T a -> Printf.sprintf "t%d" a
    | Symbols.NT x -> Printf.sprintf "n%d" x

  let state (ctx : M.ctx) (st : M.state) =
    Printf.sprintf "pos %d ev %d height %d unique %b conts [%s] events %s"
      st.M.pos st.M.ev (M.height st) st.M.unique
      (String.concat " | "
         (List.map (fun l -> String.concat " " (List.map sym l)) (M.conts st)))
      (Digest.to_hex (Digest.string (Tree.Events.bytes ctx.M.events st.M.ev)))

  let reason = function
    | M.Fail_mismatch { expected; pos } ->
      Printf.sprintf "mismatch t%d at %d" expected pos
    | M.Fail_eof { expected } -> Printf.sprintf "eof t%d" expected
    | M.Fail_no_alt { nt; pos; lookahead } ->
      Printf.sprintf "no alt n%d at %d after %d" nt pos lookahead
    | M.Fail_trailing { pos } -> Printf.sprintf "trailing at %d" pos

  let summary ctx = function
    | M.Halted st -> "halted " ^ state ctx st
    | M.Rejected (st, f) ->
      Printf.sprintf "rejected %s: %s (%s)" (state ctx st) (reason f.M.reason)
        f.M.message
    | M.Failed e -> Fmt.str "failed %a" Costar_core.Types.pp_error e

  let iterate env ctx st =
    let rec go st =
      match M.step env ctx st with
      | M.Step_cont st' -> go st'
      | M.Step_halt -> M.Halted st
      | M.Step_reject f -> M.Rejected (st, f)
      | M.Step_error e -> M.Failed e
    in
    go st

  let summaries ?cache p word =
    let env = Costar_core.Parser.env p in
    let cache =
      match cache with Some c -> c | None -> Costar_core.Parser.base_cache p
    in
    let run loop =
      let ctx = M.context env ~cache word in
      summary ctx (loop ctx (M.initial env))
    in
    [
      run (iterate env);
      run (M.multistep ~inspect:(fun _ _ -> ()) env);
      run (M.multistep env);
    ]

  (* [None] when the three agree, else the first two that differ. *)
  let disagreement ?cache p word =
    match summaries ?cache p word with
    | [ a; b; c ] ->
      if a <> b then Some ("step", a, "inspect", b)
      else if b <> c then Some ("inspect", b, "unboxed", c)
      else None
    | _ -> assert false
end
