"""red_sweep: red commutation along legal paths of two train-track maps.

One question takes a tight edge path gamma, tests it for legality at the
top height (``path_is_k_legal``) and, when it is legal, checks
``red_projection(f_#^p(gamma)) == sigma^p(red_projection(gamma))`` for
p = 1..5, one ``f_sharp`` step and one ``Substitution.apply`` of the
induced substitution sigma at a time.  Tightening and red projection do the
work; run detection does none.

Maps (the running example ``psi`` and its two-vertex ``cover``, as in
demos/session.bt): every tight path of length at most 4 on psi (3 200
paths) and at most 5 on cover (186 paths), plus 200 random walks of length 6
on psi drawn from the seed.  The seed also shuffles the question order.
"""

from __future__ import annotations

import random
import warnings

import reference as ref
from workloads import Base

STEPS = 5

PSI = {
    "vertices": ["*"],
    "edges": [("a", "*", "*", 1), ("b", "*", "*", 2), ("c", "*", "*", 3), ("d", "*", "*", 3)],
    "vmap": {"*": "*"},
    "images": {"a": "a", "b": "ba", "c": "cbcd", "d": "c"},
}

COVER = {
    "vertices": ["u", "v"],
    "edges": [("y", "u", "v", 1), ("c", "u", "v", 2), ("d", "v", "u", 2)],
    "vmap": {"u": "u", "v": "v"},
    "images": {"y": "y", "c": "cdcYc", "d": "dcd"},
}


def random_tight_path(rng, r, length: int) -> tuple[int, ...]:
    """A uniform step-by-step walk that never backtracks."""
    path = [rng.randrange(len(r.table))]
    while len(path) < length:
        path.append(rng.choice([
            j for j in range(len(r.table))
            if j != path[-1] ^ 1 and r.origin[j] == r.terminus(path[-1])
        ]))
    return tuple(path)


class Workload(Base):
    def __init__(self, seed: int, root: str):
        import burntrack

        self.bt = burntrack
        rng = random.Random(seed)
        self.maps = []
        self.refs = []
        questions = []
        for spec, exhaustive, sampled in ((PSI, 4, 200), (COVER, 5, 0)):
            g = burntrack.Graph(spec["vertices"], spec["edges"])
            with warnings.catch_warnings():
                # cover's homology determinant is 5; the map is still a valid example
                warnings.simplefilter("ignore")
                f = burntrack.StratifiedGraphMap(
                    g, spec["vmap"], {e: ref.token_string(img) for e, img in spec["images"].items()}
                )
            sigma = burntrack.induced_substitution(f)
            r = ref.GraphMapRef(spec["edges"], spec["vmap"], spec["images"])
            m = len(self.maps)
            self.maps.append((f, sigma, g.max_height))
            self.refs.append(r)
            paths = r.tight_paths(exhaustive)
            paths += [random_tight_path(rng, r, 6) for _ in range(sampled)]
            alph = g.edge_alphabet
            for seq in paths:
                questions.append((m, seq, burntrack.EdgePath(g, burntrack.Word.from_indices(alph, seq))))
        rng.shuffle(questions)
        self.questions = questions
        for q in questions[:200]:
            self.ask(q)

    def ask(self, q):
        m, _, path = q
        f, sigma, k = self.maps[m]
        gm = self.bt.graphmap
        if not gm.path_is_k_legal(f, path, k):
            return None
        red = gm.red_projection(path, k)
        cur = path
        steps = []
        for _ in range(STEPS):
            cur = gm.f_sharp(f, cur)
            red = sigma.apply(red)
            steps.append((cur, red, gm.red_projection(cur, k) == red))
        return steps

    def digest(self, q, result):
        if result is None:
            return (False,)
        return (True,) + tuple(
            (hash(cur.indices), len(cur), hash(red.indices), len(red), same)
            for cur, red, same in result
        )

    def describe(self, q):
        m, seq, _ = q
        return f"{'psi' if m == 0 else 'cover'} path {ref.render_compact(seq, self.refs[m].names)}"

    def check(self, q, digest):
        m, seq, _ = q
        r = self.refs[m]
        legal = r.top_legal(seq)
        if digest[0] != legal:
            return f"legality {digest[0]}, reference says {legal}"
        if not legal:
            return None
        cur, red = seq, r.red(seq)
        for p, (cur_hash, cur_len, red_hash, red_len, same) in enumerate(digest[1:], start=1):
            cur = r.tight_image(cur)
            red = ref.substitute(red, r.sigma)
            if (cur_hash, cur_len) != (hash(cur), len(cur)):
                return f"f_#^{p} differs from the reference tightening"
            if (red_hash, red_len) != (hash(red), len(red)):
                return f"sigma^{p} of the red projection differs from the reference"
            if not same or r.red(cur) != red:
                return f"red commutation fails at p={p}"
        return None
