open Costar_grammar
open Costar_grammar.Symbols

type frame = {
  label : nonterminal option;
  start : int;
  first : int;
  suf : symbol list;
}

type state = {
  top : frame;
  frames : frame list;
  pos : int;
  ev : int;
  unique : bool;
}

type ctx = {
  cache : Cache.t;
  word : Word.t;
  events : Tree.Events.t;
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

type stop =
  | Halted of state
  | Rejected of state * failure
  | Failed of Types.error

(* A step that does not continue raises one of these, so that a
   continuing step returns its state unboxed. *)
exception Halt
exception Reject of failure
exception Fail of Types.error

type final =
  | Final_accept of Tree.t
  | Final_trailing of failure
  | Final_malformed

type env = {
  g : Grammar.t;
  anl : Analysis.t;
  labels : nonterminal option array;
  mutable events_per_token : int;
}

let make_env g =
  {
    g;
    anl = Analysis.make g;
    (* One shared [Some x] per nonterminal: a push labels its frame
       without allocating the option. *)
    labels = Array.init (Grammar.num_nonterminals g) Option.some;
    events_per_token = 2;
  }

(* The buffer starts at the event density of the last tree this env
   finished (see [finish]), so a run rarely grows it: growth allocates
   and copies, and every off-heap byte allocated speeds up the major GC. *)
let context env ?cache word =
  let cache =
    match cache with Some c -> c | None -> Cache.create env.anl
  in
  let n = (env.events_per_token * word.Word.len) + 16 in
  { cache; word; events = Tree.Events.create n }

let initial env =
  {
    top =
      { label = None; start = 0; first = 0; suf = [ NT (Grammar.start env.g) ] };
    frames = [];
    pos = 0;
    ev = 0;
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

let remaining ctx st = ctx.word.Word.len - st.pos

let remaining_tokens ctx st = Word.drop ctx.word st.pos

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

(* The trees of every frame, top frame first, each left to right.  The
   top frame's children are the events from its [first] to [st.ev]; a
   caller's end where the frame above it starts. *)
let trees ctx st =
  let rec kids (f : frame) j ts =
    if j < f.first then ts
    else
      kids f
        (j - Tree.Events.size ctx.events j)
        (Tree.Events.tree ctx.events ctx.word j :: ts)
  in
  let rec go hi acc = function
    | [] -> List.rev acc
    | (f : frame) :: below -> go f.first (kids f (hi - 1) [] :: acc) below
  in
  go st.ev [] (st.top :: st.frames)

(* Processed symbols of each frame, most recent first: the roots of its
   partial trees.  Recovery's skipped-input markers stand for no symbol. *)
let processed ctx st =
  List.map
    (List.fold_left
       (fun acc v ->
         match Tree.view v with
         | Tree.Error (None, _) -> acc
         | _ -> Tree.root v :: acc)
       [])
    (trees ctx st)

let pos_msg ctx st =
  if st.pos >= ctx.word.Word.len then "at end of input"
  else
    let tok = Word.token ctx.word st.pos in
    if tok.Token.line > 0 then
      Printf.sprintf "at line %d, column %d" tok.Token.line tok.Token.col
    else "at token " ^ tok.Token.lexeme

(* Defensive name lookups for error messages: input tokens may carry
   terminal ids the grammar never interned. *)
let safe_terminal_name = Costar_grammar.Names.terminal

let reject reason message = raise_notrace (Reject { reason; message })
let fail e = raise_notrace (Fail e)

let consume env ctx st a suf =
  let word = ctx.word in
  if st.pos < word.Word.len then
    if Bigarray.Array1.unsafe_get word.Word.kinds st.pos = a then begin
      (* The leaf is the token's index: no token is materialized here (a
         consumer that views the leaf builds it).  Advancing [pos] empties
         the visited set: no frame starts past the consumed token. *)
      Tree.Events.leaf ctx.events st.ev st.pos;
      { st with top = { st.top with suf }; pos = st.pos + 1; ev = st.ev + 1 }
    end
    else
      let tok = Word.token word st.pos in
      reject (Fail_mismatch { expected = a; pos = st.pos })
        (Printf.sprintf "expected '%s' but found '%s' (%S) %s"
           (Grammar.terminal_name env.g a)
           (safe_terminal_name env.g tok.Token.term)
           tok.Token.lexeme (pos_msg ctx st))
  else
    reject (Fail_eof { expected = a })
      (Printf.sprintf "expected '%s' but reached end of input"
         (Grammar.terminal_name env.g a))

let do_push env st x ix unique =
  Instr.record_cov_prod ix;
  {
    top =
      {
        label = Array.unsafe_get env.labels x;
        start = st.pos;
        first = st.ev;
        suf = (Grammar.prod env.g ix).rhs;
      };
    frames = st.top :: st.frames;
    pos = st.pos;
    ev = st.ev;
    unique = st.unique && unique;
  }

let push env ctx st x =
  if opened_at st.pos x st.top st.frames then fail (Types.Left_recursive x)
  else
    (* Predict through the cache's own analysis, not [env.anl]: a supplied
       cache (loaded from an image, or built by the static analyzer)
       expresses its configurations in its own frame interner. *)
    match
      Predict.adaptive_predict env.g (Cache.analysis ctx.cache) ctx.cache x
        ~conts:conts_below st ctx.word st.pos
    with
    | Types.Unique_pred ix, _ -> do_push env st x ix true
    | Types.Ambig_pred ix, _ -> do_push env st x ix false
    | Types.Reject_pred, look ->
      reject
        (Fail_no_alt { nt = x; pos = st.pos; lookahead = look })
        (Printf.sprintf "no viable alternative for %s %s"
           (Costar_grammar.Names.nonterminal env.g x)
           (pos_msg ctx st))
    | Types.Error_pred e, _ -> fail e

let return_op ctx st =
  match st.frames with
  | ({ suf = _ :: suf; _ } as caller) :: frames -> (
    match st.top.label with
    | Some x ->
      Tree.Events.node ctx.events st.ev x ~first:st.top.first;
      { st with top = { caller with suf }; frames; ev = st.ev + 1 }
    | None -> fail (Types.Invalid_state "return from an unlabeled frame"))
  | { suf = []; _ } :: _ ->
    fail (Types.Invalid_state "caller frame without the open child")
  | [] -> fail (Types.Invalid_state "return with no caller frame")

let advance env ctx st =
  match st.top.suf with
  | T a :: suf -> consume env ctx st a suf
  | NT x :: _ -> push env ctx st x
  | [] -> (
    match st.frames with [] -> raise_notrace Halt | _ -> return_op ctx st)

let step env ctx st =
  match advance env ctx st with
  | st' -> Step_cont st'
  | exception Halt -> Step_halt
  | exception Reject f -> Step_reject f
  | exception Fail e -> Step_error e

let no_inspect _ _ = ()

let multistep ?(inspect = no_inspect) env ctx st0 =
  let rec go st =
    inspect ctx st;
    match advance env ctx st with
    | st' -> go st'
    | exception Halt -> Halted st
    | exception Reject f -> Rejected (st, f)
    | exception Fail e -> Failed e
  in
  go st0

(* The bottom frame must hold exactly one tree, a node (or, after
   recovery, an error marker) for the start symbol: one event spanning
   every event written. *)
let finish env ctx st =
  if st.pos < ctx.word.Word.len then
    Final_trailing
      {
        reason = Fail_trailing { pos = st.pos };
        message =
          Printf.sprintf "parse finished with input remaining %s"
            (pos_msg ctx st);
      }
  else
    let ev = ctx.events and n = st.ev in
    let start = Grammar.start env.g in
    if
      st.frames = [] && st.top.label = None && st.top.suf = [] && n > 0
      && Tree.Events.size ev (n - 1) = n
      && (match Tree.Events.symbol ev ctx.word (n - 1) with
         | Some (NT x) -> x = start
         | _ -> false)
    then begin
      let len = ctx.word.Word.len in
      if len > 0 then env.events_per_token <- (n + len - 1) / len;
      Final_accept (Tree.Events.seal ev ctx.word n)
    end
    else Final_malformed

(* --- StacksWf_I (Fig. 4) ------------------------------------------------ *)

let stacks_wf env ctx st =
  let g = env.g in
  let processed = processed ctx st in
  (* A frame's full contents: processed symbols, then the unprocessed
     ones — in a caller frame, headed by the open child's nonterminal. *)
  let full_of (frame, done_rev) = List.rev_append done_rev frame.suf in
  let heads_child frame = function
    | None -> true
    | Some x -> ( match frame.suf with NT y :: _ -> y = x | _ -> false)
  in
  let rec frames_wf child_label ((frame, _) as fp) rest =
    heads_child frame child_label
    &&
    match rest with
    | [] -> (
      (* Bottom frame: spells exactly the start symbol. *)
      frame.label = None
      &&
      match full_of fp with
      | [ NT x ] -> x = Grammar.start g
      | _ -> false)
    | caller :: below -> (
      match frame.label with
      | Some x ->
        (match Grammar.find_production g x (full_of fp) with
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
  let rec firsts_ok above = function
    | [] -> true
    | (f : frame) :: below -> f.first <= above && firsts_ok f.first below
  in
  (match List.combine (st.top :: st.frames) processed with
  | top :: rest -> frames_wf None top rest
  | [] -> false)
  && starts_ok st.pos (st.top :: st.frames)
  && firsts_ok st.ev (st.top :: st.frames)
