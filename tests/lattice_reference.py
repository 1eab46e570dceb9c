"""Tuple-based lattice code, kept as reference oracles for the mask code in
toricover.covering and toricover.harness.

Points are tuples and sets are frozensets: the neighbour generator, the
layered BFS, the set flood fill, the count-dict multiplicity, the
membership-dict Palais refinement, the per-point brick descent, and the
three random generators on top of them.  Each generator makes the same RNG
draws as the library's and returns its sets as {name: frozenset}.  The
sample-cover check and layering run on sets of Fraction points.
"""

import random


def neighbors(model, p):
    if model.kind == "cube":
        for j in range(model.n):
            if p[j] > 0:
                yield p[:j] + (p[j] - 1,) + p[j + 1:]
            if p[j] < model.r:
                yield p[:j] + (p[j] + 1,) + p[j + 1:]
    else:
        for i in range(model.n + 1):
            if p[i] == 0:
                continue
            for j in range(model.n + 1):
                if i != j:
                    q = list(p)
                    q[i] -= 1
                    q[j] += 1
                    yield tuple(q)


def bfs(model, sources, radius=None, allowed=None):
    """Layered multi-source BFS: {point: index of the first source reaching
    it}, ties going to the earlier source."""
    owner = {}
    for idx, s in enumerate(sources):
        if s not in owner and (allowed is None or allowed(s)):
            owner[s] = idx
    frontier = list(owner)
    while frontier and radius != 0:
        nxt = []
        for p in frontier:
            for nb in neighbors(model, p):
                if nb not in owner and (allowed is None or allowed(nb)):
                    owner[nb] = owner[p]
                    nxt.append(nb)
        frontier = nxt
        if radius is not None:
            radius -= 1
    return owner


def bfs_partition(model, sources):
    cells = [set() for _ in sources]
    for p, idx in bfs(model, sources).items():
        cells[idx].add(p)
    return [frozenset(c) for c in cells]


def connected_components(points, model):
    """Flood fill from each point not yet reached, in sorted order."""
    remaining = set(points)
    components = []
    for start in sorted(remaining):
        if start not in remaining:
            continue
        remaining.remove(start)
        comp = [start]
        frontier = [start]
        while frontier:
            for q in neighbors(model, frontier.pop()):
                if q in remaining:
                    remaining.remove(q)
                    comp.append(q)
                    frontier.append(q)
        components.append(frozenset(comp))
    return components


def multiplicity(sets):
    counts = {}
    for pts in sets.values():
        for p in pts:
            counts[p] = counts.get(p, 0) + 1
    return max(counts.values(), default=0)


def palais_coloring(sets):
    """Color classes of (sorted set names, frozenset of points) pieces."""
    membership = {}
    for name, pts in sets.items():
        for p in pts:
            membership.setdefault(p, []).append(name)
    pieces = {}
    for p, names in membership.items():
        pieces.setdefault(tuple(sorted(names)), set()).add(p)
    classes = [[] for _ in range(max(map(len, pieces), default=0))]
    for names, pts in sorted(pieces.items()):
        classes[len(names) - 1].append((names, frozenset(pts)))
    return classes


def shifted_brick_cover(model):
    """The staggered bricks, by descending each point into the bricks that
    hold it."""
    n, r = model.n, model.r
    t = max(1, r // (2 ** n))
    sides = [2 ** (n - 1 - j) * t for j in range(n)]

    def containing_bricks(p):
        found = []

        def descend(axis, running, idx):
            if axis < 0:
                found.append(tuple(reversed(idx)))
                return
            q, rem = divmod(p[axis] - running, sides[axis])
            candidates = [q] + ([q - 1] if rem == 0 else [])
            for i in candidates:
                descend(axis - 1, running + i * sides[axis], idx + [i])

        descend(n - 1, 0, [])
        return found

    members = {}
    for p in model.points():
        for idx in containing_bricks(p):
            members.setdefault(idx, set()).add(p)
    return {
        "brick_" + "_".join(map(str, idx)): frozenset(pts)
        for idx, pts in sorted(members.items())
    }


def random_low_multiplicity_cover(model, m, seed):
    rng = random.Random(seed)
    points = list(model.points())
    sets = {}
    if model.kind == "cube" and m >= 2 and model.n >= 2:
        axis = rng.randrange(model.n)
        count = rng.randint(2, min(4, model.r + 1))
        positions = sorted(rng.sample(range(model.r + 1), count))
        center = tuple(rng.randint(0, model.r) for _ in range(model.n))
        sources = [center[:axis] + (x,) + center[axis + 1:] for x in positions]
    else:
        count = rng.randint(2, min(len(points), 2 * model.n + 2))
        sources = rng.sample(points, count)
    for i, cell in enumerate(bfs_partition(model, sources)):
        if cell:
            sets[f"cell_{i}"] = cell
    anchor = rng.choice(points)
    for layer in range(1, m):
        used = set()
        for b in range(rng.randint(1, 3)):
            center = anchor if b == 0 else rng.choice(points)
            radius = rng.randint(1, max(1, model.r // 3))
            ball = bfs(model, [center], radius).keys() - used
            if ball:
                sets[f"ball_{layer}_{b}"] = frozenset(ball)
                used |= ball
    return sets


def random_small_set_family(model, k, seed):
    rng = random.Random(seed)
    points = list(model.points())
    radius_cap = max(1, model.r // 4)
    sets = {}
    for layer in range(k):
        blocked = set()
        for b in range(rng.randint(1, 2)):
            coord, value = rng.choice(model.facets())
            candidates = [p for p in points if p[coord] != value and p not in blocked]
            if not candidates:
                continue
            center = rng.choice(candidates)
            radius = rng.randint(1, radius_cap)
            ball = frozenset(bfs(
                model, [center], radius,
                allowed=lambda q: q[coord] != value and q not in blocked,
            ))
            if ball:
                sets[f"set_{layer}_{b}"] = ball
                blocked |= ball
                for p in ball:
                    blocked.update(neighbors(model, p))
    return sets


def dilated_partition_cover(model, parts, seed):
    rng = random.Random(seed)
    points = list(model.points())
    sources = rng.sample(points, parts)
    sets = {}
    for i, cell in enumerate(bfs_partition(model, sources)):
        grown = set(cell)
        for p in cell:
            grown.update(neighbors(model, p))
        sets[f"part_{i}"] = frozenset(grown)
    return sets


def sample_cover_multiplicity(sample, sets):
    """The multiplicity of a cover of a point sample by named point sets, or
    None when a set has a point outside the sample or the sets miss a sample
    point: a union loop and a layering loop over point sets."""
    sample = set(sample)
    for name, pts in sets.items():
        if not set(pts) <= sample:
            return None
    union = set()
    for pts in sets.values():
        union |= set(pts)
    if union != sample:
        return None

    # layers[j]: the points in more than j of the sets seen so far; set
    # operations reuse the stored hashes of the points
    layers = []
    for pts in sets.values():
        for j in range(len(layers) - 1, -1, -1):
            common = layers[j].intersection(pts)
            if common and j + 1 == len(layers):
                layers.append(common)
            elif common:
                layers[j + 1] |= common
        if layers:
            layers[0].update(pts)
        elif pts:
            layers.append(set(pts))
    return len(layers)
