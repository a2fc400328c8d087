open Costar_grammar
open Costar_grammar.Symbols

type frame = {
  label : nonterminal option;
  start : int;
  trees_rev : Tree.t list;
  suf : symbol list;
}

type state = {
  top : frame;
  frames : frame list;
  cache : Cache.t;
  word : Word.t;
  pos : int;
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
  labels : nonterminal option array;
}

let make_env g =
  {
    g;
    anl = Analysis.make g;
    (* One shared [Some x] per nonterminal: a push labels its frame
       without allocating the option. *)
    labels = Array.init (Grammar.num_nonterminals g) Option.some;
  }

let init_word env ?cache word =
  let cache =
    match cache with Some c -> c | None -> Cache.create env.anl
  in
  {
    top =
      {
        label = None;
        start = 0;
        trees_rev = [];
        suf = [ NT (Grammar.start env.g) ];
      };
    frames = [];
    cache;
    word;
    pos = 0;
    unique = true;
  }

(* A caller frame's [suf] starts with the nonterminal of the open child
   frame above it (the paper's representation): a push then shares the
   caller frame unchanged, and the return that closes the child drops that
   head while it rebuilds the caller anyway. *)
let after_child f = match f.suf with _ :: rest -> rest | [] -> []

let conts st = st.top.suf :: List.map after_child st.frames

(* The suffix stack below the decision at the head of [st.top.suf]: what
   LL prediction simulates.  A top-level function, so handing it to
   {!Predict.adaptive_predict} allocates no closure. *)
let conts_below st = after_child st.top :: List.map after_child st.frames

let height st = 1 + List.length st.frames

let remaining st = st.word.Word.len - st.pos

let remaining_tokens st = Word.drop st.word st.pos

(* The paper's visited set is the set of nonterminals opened since the last
   consume.  Every push records the position it happened at, and positions
   never decrease up the stack, so those nonterminals are exactly the
   labels of the topmost frames whose [start] is the current position:
   the set is a property of the stack, not a second structure to keep in
   step with it.  [opened_at] is the push guard's membership test; it is a
   top-level function so that the test allocates nothing. *)
let rec opened_at pos x (f : frame) rest =
  f.start = pos
  && ((match f.label with Some y -> y = x | None -> false)
     || match rest with f' :: rest' -> opened_at pos x f' rest' | [] -> false)

let visited st =
  let rec go acc = function
    | (f : frame) :: rest when f.start = st.pos ->
      go (match f.label with Some x -> Int_set.add x acc | None -> acc) rest
    | _ -> acc
  in
  go Int_set.empty (st.top :: st.frames)

(* Processed symbols of a frame, most recent first: the roots of its
   partial trees.  Recovery's skipped-input markers stand for no symbol. *)
let processed f =
  List.filter_map
    (function Tree.Error (None, _) -> None | v -> Some (Tree.root v))
    f.trees_rev

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
         position first recovered (the laziness contract's other end).
         Advancing [pos] empties the visited set: no frame starts past the
         consumed token. *)
      let tok = Word.token st.word st.pos in
      Step_cont
        {
          st with
          top =
            { st.top with trees_rev = Tree.Leaf tok :: st.top.trees_rev; suf };
          pos = st.pos + 1;
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

let do_push env st x ix unique =
  Instr.record_cov_prod ix;
  Step_cont
    {
      top =
        {
          label = Array.unsafe_get env.labels x;
          start = st.pos;
          trees_rev = [];
          suf = (Grammar.prod env.g ix).rhs;
        };
      frames = st.top :: st.frames;
      cache = st.cache;
      word = st.word;
      pos = st.pos;
      unique = st.unique && unique;
    }

let push env st x =
  if opened_at st.pos x st.top st.frames then Step_error (Types.Left_recursive x)
  else
    (* Predict through the cache's own analysis, not [env.anl]: a supplied
       cache (loaded from an image, or built by the static analyzer)
       expresses its configurations in its own frame interner. *)
    match
      Predict.adaptive_predict env.g (Cache.analysis st.cache) st.cache x
        ~conts:conts_below st st.word st.pos
    with
    | Types.Unique_pred ix, _ -> do_push env st x ix true
    | Types.Ambig_pred ix, _ -> do_push env st x ix false
    | Types.Reject_pred, look ->
      Step_reject
        {
          reason = Fail_no_alt { nt = x; pos = st.pos; lookahead = look };
          message =
            Printf.sprintf "no viable alternative for %s %s"
              (Costar_grammar.Names.nonterminal env.g x)
              (pos_msg st);
        }
    | Types.Error_pred e, _ -> Step_error e

let return_op st =
  match st.frames with
  | ({ suf = _ :: suf; _ } as caller) :: frames -> (
    match st.top.label with
    | Some x ->
      let node = Tree.Node (x, List.rev st.top.trees_rev) in
      Step_cont
        {
          st with
          top = { caller with trees_rev = node :: caller.trees_rev; suf };
          frames;
        }
    | None -> Step_error (Types.Invalid_state "return from an unlabeled frame"))
  | { suf = []; _ } :: _ ->
    Step_error (Types.Invalid_state "caller frame without the open child")
  | [] -> Step_error (Types.Invalid_state "return with no caller frame")

let step env st =
  match st.top.suf with
  | T a :: suf -> consume env st a suf
  | NT x :: _ -> push env st x
  | [] -> ( match st.frames with [] -> Step_halt | _ -> return_op st)

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
    | {
     label = None;
     trees_rev = [ (Tree.Node (x, _) | Tree.Error (Some (NT x), _)) as v ];
     suf = [];
     _;
    }
      when x = Grammar.start env.g ->
      Final_accept v
    | _ -> Final_malformed

(* --- StacksWf_I (Fig. 4) ------------------------------------------------ *)

let stacks_wf env st =
  let g = env.g in
  (* A frame's full contents: processed symbols, then the unprocessed
     ones — in a caller frame, headed by the open child's nonterminal. *)
  let full_of frame = List.rev_append (processed frame) frame.suf in
  let heads_child frame = function
    | None -> true
    | Some x -> ( match frame.suf with NT y :: _ -> y = x | _ -> false)
  in
  let rec frames_wf child_label frame rest =
    heads_child frame child_label
    &&
    match rest with
    | [] -> (
      (* Bottom frame: spells exactly the start symbol. *)
      frame.label = None
      &&
      match full_of frame with
      | [ NT x ] -> x = Grammar.start g
      | _ -> false)
    | caller :: below -> (
      match frame.label with
      | Some x ->
        (match Grammar.find_production g x (full_of frame) with
        | Some _ -> true
        | None -> false)
        && frames_wf (Some x) caller below
      | None -> false)
  in
  (* Push positions never decrease up the stack and never pass the input
     position: the derived visited set relies on it. *)
  let rec starts_ok above = function
    | [] -> true
    | (f : frame) :: below -> f.start <= above && starts_ok f.start below
  in
  frames_wf None st.top st.frames && starts_ok st.pos (st.top :: st.frames)
