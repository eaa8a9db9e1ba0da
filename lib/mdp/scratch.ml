(* The free vectors of one kind.  A borrow takes the shortest free one
   that is long enough; when none is, it drops the longest free one and
   makes a new one.  A domain therefore keeps at most as many vectors
   of a kind as it ever held borrowed at once.  A new vector's length is
   rounded up past the next multiple of 64, so that one made for [n]
   states also serves an offset vector of [n + 1]. *)
type 'v shelf = {
  mutable free : 'v list;
  length : 'v -> int;
  make : int -> 'v;
}

let take s n =
  let best =
    List.fold_left
      (fun best v ->
         if s.length v < n then best
         else
           match best with
           | Some b when s.length b <= s.length v -> best
           | _ -> Some v)
      None s.free
  in
  match best with
  | Some v ->
    s.free <- List.filter (fun w -> w != v) s.free;
    v
  | None ->
    (match s.free with
     | [] -> ()
     | first :: _ ->
       let longest =
         List.fold_left
           (fun l v -> if s.length v > s.length l then v else l)
           first s.free
       in
       s.free <- List.filter (fun w -> w != longest) s.free);
    s.make ((n lor 63) + 1)

let borrow s n f =
  let v = take s n in
  Fun.protect ~finally:(fun () -> s.free <- v :: s.free) (fun () -> f v)

type pool = {
  int_shelf : int array shelf;
  float_shelf : float array shelf;
  byte_shelf : Bytes.t shelf;
}

let key =
  Domain.DLS.new_key (fun () ->
      { int_shelf =
          { free = []; length = Array.length;
            make = (fun n -> Array.make n 0) };
        float_shelf =
          { free = []; length = Array.length;
            make = (fun n -> Array.make n 0.0) };
        byte_shelf =
          { free = []; length = Bytes.length;
            make = (fun n -> Bytes.make n '\000') } })

let ints n f = borrow (Domain.DLS.get key).int_shelf n f
let floats n f = borrow (Domain.DLS.get key).float_shelf n f
let bytes n f = borrow (Domain.DLS.get key).byte_shelf n f
