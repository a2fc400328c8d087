open Costar_grammar

type result =
  | Unique of Tree.t
  | Ambig of Tree.t
  | Reject of string
  | Error of Types.error

(* The tree follows "Unique " mid-line: [Tree.pp] lays it out as if it
   started a line and prints it as one block, so its lines keep their
   indentation whatever the column. *)
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
     mutable store, so [run_word] also accumulates what each input teaches
     across runs (the paper's tool discards it; ours keeps it — E4).  Cache
     contents never influence results (property-tested), only speed, so
     sharing it here is benign; a run given its own [~cache] shares
     nothing. *)
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

let run_word ?cache ?events ?inspect p word =
  let cache = match cache with Some c -> c | None -> base_cache p in
  let ctx = Machine.context p.menv ~cache ?events word in
  match Machine.multistep ?inspect p.menv ctx (Machine.initial p.menv) with
  | Machine.Halted st -> (
    match Machine.finish p.menv ctx st with
    | Machine.Final_accept v ->
      (* The uniqueness flag of the state that produced the final tree
         decides the label (paper, §3.2). *)
      if st.Machine.unique then Unique v else Ambig v
    | Machine.Final_trailing f -> Reject f.Machine.message
    | Machine.Final_malformed ->
      Error (Types.Invalid_state "malformed final configuration"))
  | Machine.Rejected (_, f) -> Reject f.Machine.message
  | Machine.Failed e -> Error e

let parse g tokens = run_word (make g) (Word.of_tokens tokens)
