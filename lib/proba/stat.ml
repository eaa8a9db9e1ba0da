module Summary = struct
  type t = {
    mutable count : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () =
    { count = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

  let add t x =
    t.count <- t.count + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.count);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.count
  let mean t = if t.count = 0 then nan else t.mean

  let variance t =
    if t.count < 2 then nan else t.m2 /. float_of_int (t.count - 1)

  let stddev t = sqrt (variance t)
  let min t = t.min
  let max t = t.max

  let mean_ci ?(z = 1.96) t =
    if t.count < 2 then (nan, nan)
    else begin
      let half = z *. stddev t /. sqrt (float_of_int t.count) in
      (t.mean -. half, t.mean +. half)
    end
end

module Proportion = struct
  type t = { mutable trials : int; mutable successes : int }

  let create () = { trials = 0; successes = 0 }

  let of_counts ~trials ~successes =
    if trials < 0 || successes < 0 || successes > trials then
      invalid_arg "Proportion.of_counts";
    { trials; successes }

  let add t success =
    t.trials <- t.trials + 1;
    if success then t.successes <- t.successes + 1

  let trials t = t.trials
  let successes t = t.successes

  let estimate t =
    if t.trials = 0 then nan
    else float_of_int t.successes /. float_of_int t.trials

  let wilson_ci ?(z = 1.96) t =
    if t.trials = 0 then (nan, nan)
    else begin
      let n = float_of_int t.trials in
      let p = estimate t in
      let z2 = z *. z in
      let denom = 1.0 +. (z2 /. n) in
      let center = (p +. (z2 /. (2.0 *. n))) /. denom in
      let half =
        z *. sqrt ((p *. (1.0 -. p) /. n) +. (z2 /. (4.0 *. n *. n))) /. denom
      in
      (Float.max 0.0 (center -. half), Float.min 1.0 (center +. half))
    end
end
