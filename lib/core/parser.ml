open Costar_grammar

type result =
  | Unique of Tree.t
  | Ambig of Tree.t
  | Reject of string
  | Error of Types.error

let pp_result g ppf = function
  | Unique v -> Fmt.pf ppf "Unique %a" (Tree.pp g) v
  | Ambig v -> Fmt.pf ppf "Ambig %a" (Tree.pp g) v
  | Reject msg -> Fmt.pf ppf "Reject (%s)" msg
  | Error e -> Fmt.pf ppf "Error (%s)" (Types.error_to_string g e)

type t = {
  menv : Machine.env;
  (* The shared prediction cache.  It starts empty and is built on demand:
     a decision's initial SLL DFA state (the paper's footnote-7 static
     grammar cache) and every transition are interned by the prediction
     miss path the first time an input needs them, so a one-shot parse pays
     only for the decisions and lookahead it touches.  The cache is a
     mutable store, so [run] also accumulates what each input teaches
     across runs (the paper's tool discards it; ours keeps it — E4).  Cache
     contents never influence results (property-tested), only speed, so
     sharing it here is benign; [run_cold] measures without cross-run
     accumulation. *)
  mutable base : Cache.t option;
}

let make g = { menv = Machine.make_env g; base = None }
let grammar (p : t) = p.menv.Machine.g
let analysis (p : t) = p.menv.Machine.anl
let env (p : t) = p.menv

let base_cache p =
  match p.base with
  | Some c -> c
  | None ->
    let c = Cache.create (analysis p) in
    p.base <- Some c;
    c

let set_base_cache p c =
  if Cache.frames c != Analysis.frames (analysis p) then
    invalid_arg "Parser.set_base_cache: cache belongs to a different analysis";
  p.base <- Some c

let multistep env ~inspect st0 =
  let rec go st =
    inspect st;
    match Machine.step env st with
    | Machine.Step_cont st' -> go st'
    | Machine.Step_accept v ->
      (* The uniqueness flag of the state that produced the final tree
         decides the label (paper, §3.2). *)
      ((if st.Machine.unique then Unique v else Ambig v), st.Machine.cache)
    | Machine.Step_reject f -> (Reject f.Machine.message, st.Machine.cache)
    | Machine.Step_error e -> (Error e, st.Machine.cache)
  in
  go st0

let run_with_cache_word p cache word =
  multistep p.menv ~inspect:ignore (Machine.init_word p.menv ~cache word)

let run_with_cache p cache tokens =
  run_with_cache_word p cache (Word.of_tokens tokens)

let run_word p word = fst (run_with_cache_word p (base_cache p) word)

let run_buf p buf = run_word p (Word.of_buf buf)

let run p tokens = fst (run_with_cache p (base_cache p) tokens)

(* The paper tool's per-parse cache: the footnote-7 static grammar cache
   (every reachable decision's initial DFA state, seeded into the base once
   — [Sll.prepare] is a no-op for a state already present), copied so
   nothing the parse learns outlives it. *)
let run_cold p tokens =
  let g = grammar p and anl = analysis p in
  let c = ref (base_cache p) in
  for x = 0 to Grammar.num_nonterminals g - 1 do
    if Analysis.reachable anl x && List.length (Grammar.prods_of g x) > 1 then
      c := Sll.prepare g anl !c x
  done;
  p.base <- Some !c;
  fst (run_with_cache p (Cache.copy !c) tokens)

let run_inspect p ~inspect tokens =
  fst
    (multistep p.menv ~inspect
       (Machine.init p.menv ~cache:(base_cache p) tokens))

let run_inspect_word p ~inspect word =
  fst
    (multistep p.menv ~inspect
       (Machine.init_word p.menv ~cache:(base_cache p) word))

let parse g tokens = run (make g) tokens
