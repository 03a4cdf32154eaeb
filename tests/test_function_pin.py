"""The model's function, pinned to stored float64 values.

``tests/data/function_pin.npz`` holds, for a seeded desk model on an
8-record corpus whose captions have several lengths: the image and caption
embeddings, one batch's total loss, and each parameter's gradient norm and
gradient sum. A change that reorders the batch, sequence or feature axes of
any op moves them by far more than rounding.

A change that is meant to change the model's function rewrites the file:

    PYTHONPATH=src python tests/test_function_pin.py
"""

from pathlib import Path

import numpy as np
import numpy.testing as npt

from beliefret import tensor as T
from beliefret.config import TrainConfig, apply_overrides
from beliefret.data import CorpusSpec, epoch_batches, generate_corpus
from beliefret.pipeline import Trainer

PIN = Path(__file__).parent / "data" / "function_pin.npz"
RTOL = 1e-10


def function_values() -> dict:
    data = generate_corpus(CorpusSpec(num_classes=4, images_per_class=2, vocab_size=48, seed=7))
    cfg = apply_overrides(TrainConfig(), ["precision=float64", "seed=5", "data.val_images_per_class=0"])
    trainer = Trainer(cfg, dataset=data)
    model, records = trainer.model, trainer.train_records
    with T.no_grad():
        images = model.embed_images(np.stack([r.pixels for r in records]).astype(model.dtype)).data
        captions = model.embed_texts([cap for r in records for cap in r.captions]).data
    batch = next(epoch_batches(records, len(records), cfg.seed, 0))
    loss = model.batch_losses(batch)[0]
    loss.backward()
    trained = [(name, p.grad) for name, p in model.named_parameters() if p.grad is not None]
    return dict(
        image_embeddings=images,
        caption_embeddings=captions,
        caption_lengths=np.array([len(cap) for r in records for cap in r.captions]),
        loss=np.array(loss.item()),
        grad_names=np.array([name for name, _ in trained]),
        grad_norms=np.array([np.linalg.norm(g) for _, g in trained]),
        grad_sums=np.array([g.sum() for _, g in trained]),
    )


def test_model_function_matches_pinned_values():
    pinned = np.load(PIN)
    got = function_values()
    assert len(set(pinned["caption_lengths"])) > 2
    npt.assert_array_equal(got["caption_lengths"], pinned["caption_lengths"])
    npt.assert_array_equal(got["grad_names"], pinned["grad_names"])
    # each entry within RTOL of its pinned value; an entry near zero within
    # RTOL of its array's largest entry, the scale of its rounding error
    for key in ("image_embeddings", "caption_embeddings", "loss", "grad_norms"):
        npt.assert_allclose(got[key], pinned[key], rtol=RTOL, atol=RTOL * np.abs(pinned[key]).max(), err_msg=key)
    # a gradient's sum to within RTOL of that gradient's norm
    assert (np.abs(got["grad_sums"] - pinned["grad_sums"]) <= RTOL * pinned["grad_norms"]).all()


if __name__ == "__main__":
    PIN.parent.mkdir(exist_ok=True)
    np.savez(PIN, **function_values())
