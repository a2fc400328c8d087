open Costar_grammar
open Costar_grammar.Symbols

type frame = {
  label : nonterminal option;
  syms_rev : symbol list;
  trees_rev : Tree.t list;
  suf : symbol list;
}

type state = {
  top : frame;
  frames : frame list;
  cache : Cache.t;
  word : Word.t;
  pos : int;
  visited : Int_set.t;
  unique : bool;
}

type fail_reason =
  | Fail_mismatch of { expected : terminal; pos : int }
  | Fail_eof of { expected : terminal }
  | Fail_no_alt of { nt : nonterminal; pos : int; lookahead : int }
  | Fail_trailing of { pos : int }

type failure = {
  reason : fail_reason;
  message : string;
}

type step_result =
  | Step_cont of state
  | Step_halt
  | Step_reject of failure
  | Step_error of Types.error

type final =
  | Final_accept of Tree.t
  | Final_trailing of failure
  | Final_malformed

type env = {
  g : Grammar.t;
  anl : Analysis.t;
}

let make_env g = { g; anl = Analysis.make g }

let init_word env ?cache word =
  let cache =
    match cache with Some c -> c | None -> Cache.create env.anl
  in
  {
    top =
      {
        label = None;
        syms_rev = [];
        trees_rev = [];
        suf = [ NT (Grammar.start env.g) ];
      };
    frames = [];
    cache;
    word;
    pos = 0;
    visited = Int_set.empty;
    unique = true;
  }

let conts st = st.top.suf :: List.map (fun f -> f.suf) st.frames

let height st = 1 + List.length st.frames

let remaining st = st.word.Word.len - st.pos

let remaining_tokens st = Word.drop st.word st.pos

let pos_msg st =
  if st.pos >= st.word.Word.len then "at end of input"
  else
    let tok = Word.token st.word st.pos in
    if tok.Token.line > 0 then
      Printf.sprintf "at line %d, column %d" tok.Token.line tok.Token.col
    else "at token " ^ tok.Token.lexeme

(* Defensive name lookups for error messages: input tokens may carry
   terminal ids the grammar never interned. *)
let safe_terminal_name = Costar_grammar.Names.terminal

let consume env st a suf =
  if st.pos < st.word.Word.len then
    if Bigarray.Array1.unsafe_get st.word.Word.kinds st.pos = a then
      (* The leaf token is materialized here, at consume time: in the
         buffer pipeline this is where the lexeme is first sliced and the
         position first recovered (the laziness contract's other end). *)
      let tok = Word.token st.word st.pos in
      Step_cont
        {
          st with
          top =
            {
              st.top with
              syms_rev = T a :: st.top.syms_rev;
              trees_rev = Tree.Leaf tok :: st.top.trees_rev;
              suf;
            };
          pos = st.pos + 1;
          visited = Int_set.empty;
        }
    else
      let tok = Word.token st.word st.pos in
      Step_reject
        {
          reason = Fail_mismatch { expected = a; pos = st.pos };
          message =
            Printf.sprintf "expected '%s' but found '%s' (%S) %s"
              (Grammar.terminal_name env.g a)
              (safe_terminal_name env.g tok.Token.term)
              tok.Token.lexeme (pos_msg st);
        }
  else
    Step_reject
      {
        reason = Fail_eof { expected = a };
        message =
          Printf.sprintf "expected '%s' but reached end of input"
            (Grammar.terminal_name env.g a);
      }

let push env st x suf =
  if Int_set.mem x st.visited then Step_error (Types.Left_recursive x)
  else
    let conts () = suf :: List.map (fun f -> f.suf) st.frames in
    (* Predict through the cache's own analysis, not [env.anl]: a supplied
       cache (loaded from an image, or built by the static analyzer)
       expresses its configurations in its own frame interner. *)
    let pred, look =
      Predict.adaptive_predict env.g (Cache.analysis st.cache) st.cache x
        conts st.word st.pos
    in
    let do_push ix unique =
      Instr.record_cov_prod ix;
      let gamma = (Grammar.prod env.g ix).rhs in
      Step_cont
        {
          top = { label = Some x; syms_rev = []; trees_rev = []; suf = gamma };
          frames = { st.top with suf } :: st.frames;
          cache = st.cache;
          word = st.word;
          pos = st.pos;
          visited = Int_set.add x st.visited;
          unique = st.unique && unique;
        }
    in
    match pred with
    | Types.Unique_pred ix -> do_push ix true
    | Types.Ambig_pred ix -> do_push ix false
    | Types.Reject_pred ->
      Step_reject
        {
          reason = Fail_no_alt { nt = x; pos = st.pos; lookahead = look };
          message =
            Printf.sprintf "no viable alternative for %s %s"
              (Costar_grammar.Names.nonterminal env.g x)
              (pos_msg st);
        }
    | Types.Error_pred e -> Step_error e

let return_op st =
  match st.frames with
  | caller :: frames -> (
    match st.top.label with
    | Some x ->
      let node = Tree.Node (x, List.rev st.top.trees_rev) in
      Step_cont
        {
          st with
          top =
            {
              caller with
              syms_rev = NT x :: caller.syms_rev;
              trees_rev = node :: caller.trees_rev;
            };
          frames;
          visited = Int_set.remove x st.visited;
        }
    | None -> Step_error (Types.Invalid_state "return from an unlabeled frame"))
  | [] -> Step_error (Types.Invalid_state "return with no caller frame")

let step env st =
  match st.top.suf with
  | T a :: suf -> consume env st a suf
  | NT x :: suf -> push env st x suf
  | [] -> if st.frames = [] then Step_halt else return_op st

let finish env st =
  if st.pos < st.word.Word.len then
    Final_trailing
      {
        reason = Fail_trailing { pos = st.pos };
        message =
          Printf.sprintf "parse finished with input remaining %s" (pos_msg st);
      }
  else
    match st.top with
    | { label = None; syms_rev = [ NT x ]; trees_rev = [ v ]; suf = [] }
      when x = Grammar.start env.g ->
      Final_accept v
    | _ -> Final_malformed

(* --- StacksWf_I (Fig. 4) ------------------------------------------------ *)

let stacks_wf env st =
  let g = env.g in
  (* A frame's full contents: processed symbols, then — if a child frame is
     currently open — the child's nonterminal (the paper keeps it at the
     head of the caller's suffix frame), then the unprocessed symbols. *)
  let full_of frame child_label =
    List.rev_append frame.syms_rev
      (match child_label with
      | Some x -> NT x :: frame.suf
      | None -> frame.suf)
  in
  let rec frames_wf child_label frame rest =
    match rest with
    | [] -> (
      (* Bottom frame: spells exactly the start symbol. *)
      frame.label = None
      &&
      match full_of frame child_label with
      | [ NT x ] -> x = Grammar.start g
      | _ -> false)
    | caller :: below -> (
      match frame.label with
      | Some x ->
        (match Grammar.find_production g x (full_of frame child_label) with
        | Some _ -> true
        | None -> false)
        && frames_wf (Some x) caller below
      | None -> false)
  in
  let frames_wf top rest = frames_wf None top rest in
  (* Each frame's trees correspond one-to-one with its processed symbols. *)
  let trees_ok f =
    List.length f.syms_rev = List.length f.trees_rev
    && List.for_all2
         (fun s v -> equal_symbol (Tree.root v) s)
         f.syms_rev f.trees_rev
  in
  frames_wf st.top st.frames && List.for_all trees_ok (st.top :: st.frames)
