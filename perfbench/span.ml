(* In-memory spans for the traced run.  Each span records its layer, the
   public call it wraps, wall-clock start and stop, the minor words
   allocated inside it, its parent span and the request it belongs to.
   Spans live in growable unboxed arrays, so recording one allocates
   nothing once the arrays have grown; they are written out as JSON lines
   when the run ends. *)

let layers =
  [| "request"; "setup"; "lex"; "core"; "tree"; "render"; "recover"; "parallel" |]

let request = 0
let setup = 1
let lex = 2
let core = 3
let tree = 4
let render = 5
let recover = 6
let parallel = 7

type t = {
  mutable n : int;
  mutable layer : int array;
  mutable call : string array;
  mutable parent : int array;
  mutable req : int array;
  mutable start : float array;
  mutable stop : float array;
  mutable words : float array;
  mutable open_ : int;  (** innermost open span, -1 at top level *)
  mutable cur_req : int;
}

let create () =
  let cap = 1024 in
  {
    n = 0;
    layer = Array.make cap 0;
    call = Array.make cap "";
    parent = Array.make cap (-1);
    req = Array.make cap (-1);
    start = Array.make cap 0.;
    stop = Array.make cap 0.;
    words = Array.make cap 0.;
    open_ = -1;
    cur_req = -1;
  }

let grow t =
  let cap = 2 * Array.length t.layer in
  let ext a d = Array.append a (Array.make (cap - Array.length a) d) in
  t.layer <- ext t.layer 0;
  t.call <- ext t.call "";
  t.parent <- ext t.parent (-1);
  t.req <- ext t.req (-1);
  t.start <- ext t.start 0.;
  t.stop <- ext t.stop 0.;
  t.words <- ext t.words 0.

let enter t layer call =
  if t.n = Array.length t.layer then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.layer.(i) <- layer;
  t.call.(i) <- call;
  t.parent.(i) <- t.open_;
  t.req.(i) <- t.cur_req;
  t.open_ <- i;
  t.words.(i) <- Gc.minor_words ();
  t.start.(i) <- Unix.gettimeofday ();
  i

let leave t i =
  t.stop.(i) <- Unix.gettimeofday ();
  t.words.(i) <- Gc.minor_words () -. t.words.(i);
  t.open_ <- t.parent.(i)

(** [run tr layer call f] is [f ()], wrapped in a span when tracing. *)
let run tr layer call f =
  match tr with
  | None -> f ()
  | Some t -> (
    let i = enter t layer call in
    match f () with
    | r ->
      leave t i;
      r
    | exception e ->
      leave t i;
      raise e)

(** Open a request span (the unit a latency sample measures), named after
    the input's language. *)
let begin_request tr id call =
  match tr with
  | None -> -1
  | Some t ->
    t.cur_req <- id;
    enter t request call

let end_request tr i =
  match tr with
  | None -> ()
  | Some t ->
    leave t i;
    t.cur_req <- -1

let duration t i = t.stop.(i) -. t.start.(i)

(** Per layer, over the spans inside requests (the timed region): total
    duration and self time (duration minus the part its direct children
    cover). *)
type totals = { dur : float array; self : float array }

let totals t =
  let k = Array.length layers in
  let dur = Array.make k 0. and self = Array.make k 0. in
  for i = 0 to t.n - 1 do
    if t.req.(i) >= 0 then begin
      let l = t.layer.(i) and d = duration t i in
      dur.(l) <- dur.(l) +. d;
      self.(l) <- self.(l) +. d;
      let p = t.parent.(i) in
      if p >= 0 then self.(t.layer.(p)) <- self.(t.layer.(p)) -. d
    end
  done;
  { dur; self }

(** Total duration and call count of the spans of one public call. *)
let call_time t call =
  let s = ref 0. and c = ref 0 in
  for i = 0 to t.n - 1 do
    if t.call.(i) = call then begin
      s := !s +. duration t i;
      incr c
    end
  done;
  (!s, !c)

(** Minor words allocated inside the spans of one public call. *)
let call_words t call =
  let w = ref 0. in
  for i = 0 to t.n - 1 do
    if t.call.(i) = call then w := !w +. t.words.(i)
  done;
  !w

let write t path =
  let oc = open_out path in
  for i = 0 to t.n - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"layer\":%S,\"call\":%S,\"parent\":%d,\"request\":%d,\"start\":%.9f,\"stop\":%.9f,\"minor_words\":%.0f}\n"
      i layers.(t.layer.(i)) t.call.(i) t.parent.(i) t.req.(i) t.start.(i)
      t.stop.(i) t.words.(i)
  done;
  close_out oc
