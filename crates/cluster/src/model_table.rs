//! The dense per-model table behind the serving loop's per-request
//! accumulators: the per-model latency sketches, the telemetry windows and
//! the chaos layer's availability counters.
//!
//! [`ModelTable`] holds one `Option` slot per catalog model, indexed by
//! `ModelId as usize` — the same dense index the dispatch index's load trees
//! and the `ShardPlan` residue tables use — so a touch is one load, not an
//! ordered-map walk.
//!
//! Each table stands in for a `BTreeMap<ModelId, T>` of the report, and must
//! fold into exactly that map. Two properties make it so. A slot is `Some`
//! iff the map would hold the key, because the only way to fill one is
//! [`ModelTable::entry`], the map's `entry(model).or_default()`. Slot order
//! is `ModelId` order, which is also `BTreeMap<ModelId, _>` order, so every
//! fold over a table visits models in the map's order.

use workloads::ModelId;

/// One `Option` slot per [`ModelId`], in `ModelId` order.
#[derive(Debug, Clone)]
pub(crate) struct ModelTable<T> {
    slots: Vec<Option<T>>,
}

impl<T> Default for ModelTable<T> {
    fn default() -> Self {
        ModelTable {
            slots: ModelId::all().iter().map(|_| None).collect(),
        }
    }
}

impl<T> ModelTable<T> {
    /// The model's slot, created with `T::default()` on first touch.
    pub(crate) fn entry(&mut self, model: ModelId) -> &mut T
    where
        T: Default,
    {
        self.slots[model as usize].get_or_insert_with(T::default)
    }

    /// The touched slots, in `ModelId` order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ModelId, &T)> {
        ModelId::all()
            .into_iter()
            .zip(&self.slots)
            .filter_map(|(model, slot)| slot.as_ref().map(|value| (model, value)))
    }

    /// The touched slots, mutably, in `ModelId` order.
    pub(crate) fn iter_mut(&mut self) -> impl Iterator<Item = (ModelId, &mut T)> {
        ModelId::all()
            .into_iter()
            .zip(&mut self.slots)
            .filter_map(|(model, slot)| slot.as_mut().map(|value| (model, value)))
    }

    /// Consumes the table into its touched slots, in `ModelId` order.
    pub(crate) fn into_entries(self) -> impl Iterator<Item = (ModelId, T)> {
        ModelId::all()
            .into_iter()
            .zip(self.slots)
            .filter_map(|(model, slot)| slot.map(|value| (model, value)))
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    #[test]
    fn presence_and_order_match_the_map_it_replaces() {
        let touches = [
            ModelId::Llama,
            ModelId::Bert,
            ModelId::Mnist,
            ModelId::Bert,
            ModelId::Dlrm,
        ];
        let mut table: ModelTable<u64> = ModelTable::default();
        let mut map: BTreeMap<ModelId, u64> = BTreeMap::new();
        for (step, &model) in touches.iter().enumerate() {
            *table.entry(model) += step as u64;
            *map.entry(model).or_default() += step as u64;
        }
        let visited: Vec<(ModelId, u64)> = table.iter_mut().map(|(m, v)| (m, *v)).collect();
        let expected: Vec<(ModelId, u64)> = map.iter().map(|(m, v)| (*m, *v)).collect();
        assert_eq!(visited, expected);
        let read: Vec<(ModelId, u64)> = table.iter().map(|(m, v)| (m, *v)).collect();
        assert_eq!(read, expected);
        let entries: Vec<(ModelId, u64)> = table.clone().into_entries().collect();
        assert_eq!(entries, expected);
        for (_, value) in table.iter_mut() {
            *value *= 2;
        }
        let doubled: BTreeMap<ModelId, u64> = table.into_entries().collect();
        assert_eq!(doubled, map.iter().map(|(m, v)| (*m, v * 2)).collect());
    }

    #[test]
    fn an_untouched_table_folds_to_an_empty_map() {
        let mut table: ModelTable<u64> = ModelTable::default();
        assert_eq!(table.iter_mut().count(), 0);
        assert_eq!(table.into_entries().count(), 0);
    }
}
