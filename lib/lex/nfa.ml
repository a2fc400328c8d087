type state = int

type t = {
  num_states : int;
  start : state;
  eps : state list array;  (** epsilon transitions *)
  trans : (char * char * state) list array;  (** range transitions *)
  accepts : int option array;  (** accepting rule index per state *)
}

let num_states n = n.num_states
let start n = n.start
let accept_rule n s = n.accepts.(s)

(* Mutable builder. *)
type builder = {
  mutable n : int;
  mutable b_eps : (state * state) list;
  mutable b_trans : (state * char * char * state) list;
  mutable b_accepts : (state * int) list;
}

let fresh b =
  let s = b.n in
  b.n <- b.n + 1;
  s

let add_eps b s1 s2 = b.b_eps <- (s1, s2) :: b.b_eps
let add_trans b s1 lo hi s2 = b.b_trans <- (s1, lo, hi, s2) :: b.b_trans

(* Thompson fragment for [re] between fresh entry/exit states. *)
let rec fragment b re =
  match Regex.view re with
  | Regex.Eps ->
    let s = fresh b and e = fresh b in
    add_eps b s e;
    (s, e)
  | Regex.Ranges ranges ->
    let s = fresh b and e = fresh b in
    List.iter (fun (lo, hi) -> add_trans b s lo hi e) ranges;
    (s, e)
  | Regex.Seq2 (r1, r2) ->
    let s1, e1 = fragment b r1 in
    let s2, e2 = fragment b r2 in
    add_eps b e1 s2;
    (s1, e2)
  | Regex.Alt2 (r1, r2) ->
    let s = fresh b and e = fresh b in
    let s1, e1 = fragment b r1 in
    let s2, e2 = fragment b r2 in
    add_eps b s s1;
    add_eps b s s2;
    add_eps b e1 e;
    add_eps b e2 e;
    (s, e)
  | Regex.Star r ->
    let s = fresh b and e = fresh b in
    let s1, e1 = fragment b r in
    add_eps b s s1;
    add_eps b s e;
    add_eps b e1 s1;
    add_eps b e1 e;
    (s, e)

let build rules =
  let b = { n = 0; b_eps = []; b_trans = []; b_accepts = [] } in
  let start = fresh b in
  List.iteri
    (fun ix re ->
      let s, e = fragment b re in
      add_eps b start s;
      b.b_accepts <- (e, ix) :: b.b_accepts)
    rules;
  let eps = Array.make b.n [] in
  List.iter (fun (s1, s2) -> eps.(s1) <- s2 :: eps.(s1)) b.b_eps;
  let trans = Array.make b.n [] in
  List.iter
    (fun (s1, lo, hi, s2) -> trans.(s1) <- (lo, hi, s2) :: trans.(s1))
    b.b_trans;
  let accepts = Array.make b.n None in
  List.iter
    (fun (s, ix) ->
      (* Lowest rule index wins when fragments share a state (they cannot,
         but be defensive). *)
      match accepts.(s) with
      | Some ix' when ix' <= ix -> ()
      | _ -> accepts.(s) <- Some ix)
    b.b_accepts;
  { num_states = b.n; start; eps; trans; accepts }

(* A scratch state set for one subset construction: [mark] flags the
   members and [touched] lists them, so adding, listing and clearing cost
   the members, not the whole NFA.  One set serves every step of a run,
   which owns it: nothing is shared between runs or domains. *)
type marks = {
  nfa : t;
  mark : Bytes.t;
  mutable touched : state list;
}

let marks nfa = { nfa; mark = Bytes.make nfa.num_states '\000'; touched = [] }

let mem m s = Bytes.unsafe_get m.mark s <> '\000'

let add m s =
  Bytes.unsafe_set m.mark s '\001';
  m.touched <- s :: m.touched

(* The members in ascending order; empties the set. *)
let take m =
  let members = m.touched in
  List.iter (fun s -> Bytes.unsafe_set m.mark s '\000') members;
  m.touched <- [];
  List.sort (fun (a : int) b -> compare a b) members

let eps_closure m states =
  let rec go s =
    if not (mem m s) then begin
      add m s;
      List.iter go m.nfa.eps.(s)
    end
  in
  List.iter go states;
  take m

let intervals nfa =
  (* [cut.(c)]: an interval starts at byte [c]. *)
  let cut = Array.make 257 false in
  cut.(0) <- true;
  Array.iter
    (List.iter (fun (lo, hi, _) ->
         cut.(Char.code lo) <- true;
         cut.(Char.code hi + 1) <- true))
    nfa.trans;
  let acc = ref [] and hi = ref 255 in
  for c = 255 downto 0 do
    if cut.(c) then begin
      acc := (c, !hi) :: !acc;
      hi := c - 1
    end
  done;
  !acc

let step m states c =
  List.iter
    (fun s ->
      List.iter
        (fun (lo, hi, s') -> if c >= lo && c <= hi && not (mem m s') then add m s')
        m.nfa.trans.(s))
    states;
  take m
