"""Ray Data stages: per-batch stage classes and the one ``map_batches``
call that runs them.

A stage class sets up in ``__init__`` and maps one batch in
``__call__``.  :func:`map_stage` runs it as Ray Data tasks that build the
stage for every batch; :func:`map_slices` does the same inside a task
that is not Ray Data's (the flagship's exchange split tasks).  The lexicons and LM come from the process-cached
``default_lexicons()`` / ``default_lm()``, so only a worker process's
first build pays their load; a later ``DecodeFeaturize`` build costs
about 2 ms.  No actor pool is started or sized, and every CPU maps
(BASELINE.md, "Stages as tasks")."""


def _run_stage(batch, *, stage, kwargs):
    """The ``map_batches`` task function: a fresh ``stage(**kwargs)``
    maps ``batch``."""
    return stage(**kwargs)(batch)


def map_slices(block, *, stage, kwargs, batch_size):
    """:func:`_run_stage` over one Arrow ``block`` in ``batch_size``-row
    slices, as ``map_batches`` cuts it, so a stage's heap holds one slice
    at a time; the outputs are concatenated.  An empty block goes through
    the stage once, for its output schema."""
    import pyarrow as pa

    return pa.concat_tables(
        [_run_stage(block.slice(i, batch_size), stage=stage, kwargs=kwargs)
         for i in range(0, max(block.num_rows, 1), batch_size)],
        promote_options="default")


def map_stage(ds, stage_cls, batch_size, batch_format="pyarrow", **kwargs):
    """``ds.map_batches`` of ``stage_cls`` as tasks over zero-copy
    batches; ``kwargs`` go to its constructor."""
    return ds.map_batches(
        _run_stage,
        fn_kwargs={"stage": stage_cls, "kwargs": kwargs},
        batch_format=batch_format,
        zero_copy_batch=True,
        batch_size=batch_size,
    )
