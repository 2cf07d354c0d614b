"""Simulated LLM: spec, latency model, and generation."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.llm.icl import ExampleView, ICLBoostModel
from repro.llm.quality import APTITUDE_STD, QualityModel, clip_unit
from repro.utils.rng import make_rng, stable_hash
from repro.workload.request import Request


@dataclass(frozen=True)
class ModelSpec:
    """Static description of one servable model.

    Latency model: TTFT = ttft_base_s + prefill_s_per_token * prompt_tokens;
    decode time = tbt_s per output token.  ``gpus_per_replica`` and
    ``batch_slots`` size the serving simulator's replicas; ``cost_per_1k_tokens``
    feeds the router's cost bias and the replay-gain formula.
    """

    name: str
    family: str
    params_b: float
    capability: float          # in (0, 1]; drives base response quality
    gpus_per_replica: int
    ttft_base_s: float
    prefill_s_per_token: float
    tbt_s: float
    cost_per_1k_tokens: float
    max_context_tokens: int = 8192
    batch_slots: int = 8       # concurrent requests one replica sustains
    verbosity: float = 1.0     # output-length multiplier (R1 chains >> 1)

    def __post_init__(self) -> None:
        if not 0.0 < self.capability <= 1.0:
            raise ValueError(f"{self.name}: capability must be in (0, 1]")
        if self.gpus_per_replica < 1 or self.batch_slots < 1:
            raise ValueError(f"{self.name}: replica sizing must be positive")
        if min(self.ttft_base_s, self.prefill_s_per_token, self.tbt_s) < 0:
            raise ValueError(f"{self.name}: latency constants must be >= 0")

    def ttft(self, prompt_tokens: int) -> float:
        """Time-to-first-token for a prompt of the given length."""
        return self.ttft_base_s + self.prefill_s_per_token * max(0, prompt_tokens)

    def decode_time(self, output_tokens: int) -> float:
        """Decoding time for the given number of output tokens."""
        return self.tbt_s * max(0, output_tokens)

    def service_time(self, prompt_tokens: int, output_tokens: int) -> float:
        """Contention-free end-to-end generation time."""
        return self.ttft(prompt_tokens) + self.decode_time(output_tokens)


@dataclass
class GenerationResult:
    """Everything observable about one generation."""

    model_name: str
    quality: float
    prompt_tokens: int
    output_tokens: int
    ttft_s: float
    decode_s: float
    icl_boost: float
    n_examples: int
    cost: float
    text: str = ""
    metadata: dict = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return self.ttft_s + self.decode_s

    @property
    def tbt_s(self) -> float:
        return self.decode_s / self.output_tokens if self.output_tokens else 0.0


# Prepending an example adds its request+response tokens plus template glue.
EXAMPLE_TEMPLATE_OVERHEAD_TOKENS = 12
# Entries a per-request memo of a pure function may hold before it is cleared.
_MEMO_BOUND = 8192
# Guided by high-quality examples, responses come out slightly tighter
# (Fig. 18: 3% lower zero-load latency for 2B + IC via shorter decodes).
ICL_DECODE_SHRINK = 0.93


class SimulatedLLM:
    """A model that generates responses with latent quality and real latency.

    Deterministic per (model, request, decode_index): replaying the same
    request yields a *different* sample each call (token-sampling variance,
    which example replay exploits) but the sequence of samples is reproducible.
    """

    def __init__(self, spec: ModelSpec,
                 quality_model: QualityModel | None = None,
                 icl_model: ICLBoostModel | None = None,
                 seed: int = 0) -> None:
        self.spec = spec
        self.quality_model = quality_model or QualityModel()
        self.icl_model = icl_model or ICLBoostModel()
        self._rng = make_rng(stable_hash("llm", spec.name, seed))
        self._decode_counts: dict[str, int] = {}
        # base_quality is a pure function of (model, request id, difficulty)
        # but gets asked several times per serve (router features, generate,
        # learning); memoize the float, bounded so a long-lived service
        # cannot grow it without limit.
        self._base_quality_memo: dict[tuple[str, float], float] = {}
        # Likewise the word every decode stream of a request derives from
        # (replay asks once per sample).  Same bound; not snapshot state.
        self._decode_seed_memo: dict[str, int] = {}

    @property
    def name(self) -> str:
        return self.spec.name

    def decode_count(self, request_id: str) -> int:
        """How many times this model has generated for ``request_id``.

        The decode RNG stream is keyed per (model, request, decode index),
        so this position is durable state: persistence snapshots it and WAL
        ``replay_rewrite`` records carry it, letting a restored service
        resume every request's sample sequence exactly where it stopped.
        """
        return self._decode_counts.get(request_id, 0)

    def base_quality(self, request: Request) -> float:
        """Deterministic quality this model achieves without examples.

        Capability/difficulty curve plus a per-(model, request) aptitude term
        (see :data:`repro.llm.quality.APTITUDE_STD`): the same request always
        gets the same aptitude from the same model.
        """
        memo_key = (request.request_id, request.difficulty)
        memo = self._base_quality_memo.get(memo_key)
        if memo is not None:
            return memo
        base = self.quality_model.base_quality(
            self.spec.capability, request.difficulty
        )
        aptitude_rng = make_rng(
            stable_hash("aptitude", self.spec.name, request.request_id)
        )
        base += float(aptitude_rng.normal(0.0, APTITUDE_STD))
        result = clip_unit(base)
        if len(self._base_quality_memo) >= _MEMO_BOUND:
            self._base_quality_memo.clear()
        self._base_quality_memo[memo_key] = result
        return result

    def prompt_tokens_with_examples(self, request: Request,
                                    examples: list[ExampleView]) -> int:
        tokens = request.prompt_tokens
        for example in examples:
            tokens += example.tokens + EXAMPLE_TEMPLATE_OVERHEAD_TOKENS
        return min(tokens, self.spec.max_context_tokens)

    def generate(self, request: Request,
                 examples: list[ExampleView] | None = None) -> GenerationResult:
        """Produce one response; repeated calls re-sample decode noise."""
        examples = examples or []
        count = self._decode_counts.get(request.request_id, 0)
        self._decode_counts[request.request_id] = count + 1
        # spawn_rng(<the "gen" generator>, "decode", count), the one word
        # it draws from its parent memoized.
        try:
            word = self._decode_seed_memo[request.request_id]
        except KeyError:
            if len(self._decode_seed_memo) >= _MEMO_BOUND:
                self._decode_seed_memo.clear()
            word = self._decode_seed_memo[request.request_id] = int(make_rng(
                stable_hash("gen", self.spec.name, request.request_id)
            ).integers(0, 2**63 - 1))
        rng = make_rng(stable_hash(word, "decode", count))

        base = self.base_quality(request)
        boost = self.icl_model.boost(request.latent, examples, base)
        quality = self.quality_model.sample_quality(base, boost, rng)

        prompt_tokens = self.prompt_tokens_with_examples(request, examples)
        output_tokens = max(2, int(round(
            request.target_output_tokens * self.spec.verbosity
            * (ICL_DECODE_SHRINK if examples else 1.0)
            * float(rng.lognormal(0.0, 0.08))
        )))
        ttft = self.spec.ttft(prompt_tokens)
        decode = self.spec.decode_time(output_tokens)
        cost = (prompt_tokens + output_tokens) / 1000.0 * self.spec.cost_per_1k_tokens
        text = (
            f"[{self.spec.name} q={quality:.3f}] response to "
            f"{request.request_id}: " + request.text[:120]
        )
        return GenerationResult(
            model_name=self.spec.name,
            quality=quality,
            prompt_tokens=prompt_tokens,
            output_tokens=output_tokens,
            ttft_s=ttft,
            decode_s=decode,
            icl_boost=boost,
            n_examples=len(examples),
            cost=cost,
            text=text,
        )
